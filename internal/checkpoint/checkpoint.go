// Package checkpoint is the repository's durable-snapshot container: a
// versioned, self-delimiting, checksummed on-disk format that the
// long-running engines (the explorer's level-synchronized BFS first
// among them) write at safe boundaries and restore from after a crash,
// a cancellation, or a daemon restart.
//
// The container deliberately knows nothing about what it carries. An
// engine owns its payload encoding (internal/explore encodes its
// interned configuration table with the same binary AppendKey varint
// vocabulary it interns by); this package owns everything a resume must
// be able to reject *before* trusting a single payload byte:
//
//   - a fixed magic so arbitrary files fail fast (ErrBadMagic);
//   - a kind string so one engine cannot load another's snapshot;
//   - a payload schema version per kind (ErrVersion on skew);
//   - a caller-supplied 64-bit fingerprint binding the snapshot to the
//     exact inputs it was taken from (ErrFingerprint on mismatch);
//   - a CRC-32C over the whole file (ErrCorrupt on damage), with the
//     payload length encoded up front so truncation is detected even
//     when the truncated prefix happens to checksum correctly.
//
// Writes are atomic: the snapshot is written to a temporary file in the
// destination directory, synced, and renamed over the target, so a
// crash mid-write leaves either the previous snapshot or none — never a
// torn one. Readers therefore never need recovery logic beyond the
// typed rejections above.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Snapshot rejection reasons, wrapped by Read's errors so callers can
// errors.Is-classify a refused resume.
var (
	// ErrBadMagic reports that the file is not a checkpoint at all.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrCorrupt reports a truncated or bit-damaged checkpoint.
	ErrCorrupt = errors.New("checkpoint: corrupt or truncated")
	// ErrKind reports a checkpoint written by a different engine.
	ErrKind = errors.New("checkpoint: wrong kind")
	// ErrVersion reports a payload schema the reader does not speak.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrFingerprint reports a snapshot taken from different inputs
	// than the resume was asked to continue.
	ErrFingerprint = errors.New("checkpoint: fingerprint mismatch")
	// ErrSync reports that a written snapshot could not be made
	// durable: the data fsync, or the parent-directory fsync that
	// commits the rename, failed. The file may be visible but must not
	// be assumed to survive a crash.
	ErrSync = errors.New("checkpoint: snapshot not durable")
)

// magic opens every checkpoint file. The trailing digit is the
// *container* revision; payload schemas version themselves per kind.
var magic = [8]byte{'D', 'A', 'C', 'C', 'K', 'P', 'T', '1'}

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header identifies a snapshot independent of its payload.
type Header struct {
	// Kind names the owning engine's payload schema, e.g.
	// "explore.graph". Read rejects mismatches with ErrKind.
	Kind string
	// Version is the payload schema version. Read rejects versions
	// above the reader's maximum with ErrVersion.
	Version uint64
	// Fingerprint binds the snapshot to the inputs it was taken from
	// (see Fingerprinter). Read rejects mismatches with ErrFingerprint.
	Fingerprint uint64
}

// Write atomically persists a snapshot to path: temp file in the same
// directory, fsync, rename. The previous file at path (if any) remains
// intact until the rename commits.
func Write(path string, h Header, payload []byte) error {
	return WriteV(path, h, [][]byte{payload})
}

// WriteV is Write with the payload supplied as a vector of sections,
// concatenated on disk exactly as Write would store their
// concatenation. Engines that maintain their payload as append-only
// section buffers (the explorer's spanning-tree and edge-list caches)
// hand those buffers over by reference instead of assembling one
// contiguous payload — snapshots are rewritten at every checkpoint, so
// an O(payload) assembly copy per snapshot would rival the write cost
// of large graphs. Sections must not be mutated until WriteV returns.
func WriteV(path string, h Header, sections [][]byte) error {
	// The header and trailer are built in a small scratch buffer and the
	// sections are written as-is, with the checksum streamed across all.
	total := 0
	for _, s := range sections {
		total += len(s)
	}
	hdr := make([]byte, 0, len(magic)+len(h.Kind)+32)
	hdr = append(hdr, magic[:]...)
	hdr = binary.AppendUvarint(hdr, uint64(len(h.Kind)))
	hdr = append(hdr, h.Kind...)
	hdr = binary.AppendUvarint(hdr, h.Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, h.Fingerprint)
	hdr = binary.AppendUvarint(hdr, uint64(total))
	crc := crc32.Update(0, castagnoli, hdr)
	for _, s := range sections {
		crc = crc32.Update(crc, castagnoli, s)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(hdr); err != nil {
		return cleanup(err)
	}
	for _, s := range sections {
		if _, err := tmp.Write(s); err != nil {
			return cleanup(err)
		}
	}
	if _, err := tmp.Write(trailer[:]); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: sync %s: %v: %w", tmpName, err, ErrSync)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// The rename is only durable once the directory entry itself is on
	// disk: without this fsync a crash right after the rename can lose
	// the snapshot (or resurrect the old one) on journaling filesystems.
	return syncDir(dir)
}

// syncDir fsyncs the directory that just received a renamed snapshot.
// Filesystems that reject fsync on a directory handle (EINVAL/ENOTSUP)
// are tolerated — the rename is atomic there regardless; real failures
// are reported wrapping ErrSync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: sync dir %s: %v: %w", dir, err, ErrSync)
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("checkpoint: sync dir %s: %v: %w", dir, err, ErrSync)
	}
	return nil
}

// creader streams a snapshot file through an incremental CRC-32C while
// tracking the bytes consumed. It implements io.ByteReader so varints
// decode straight off the stream.
type creader struct {
	r   *bufio.Reader
	crc uint32
	n   int64
	tmp [1]byte
}

func (c *creader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	c.tmp[0] = b
	c.crc = crc32.Update(c.crc, castagnoli, c.tmp[:1])
	c.n++
	return b, nil
}

func (c *creader) readFull(p []byte) error {
	if _, err := io.ReadFull(c.r, p); err != nil {
		return err
	}
	c.crc = crc32.Update(c.crc, castagnoli, p)
	c.n += int64(len(p))
	return nil
}

func (c *creader) uint64() (uint64, error) {
	var b [8]byte
	if err := c.readFull(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// load streams the snapshot at path: magic and header are parsed
// incrementally, the declared payload length is cross-checked against
// the file size before any payload allocation (the container is
// header|payload|crc and nothing else, so the sizes must match
// exactly), and the CRC-32C is folded in as bytes arrive. With
// wantPayload false the payload is streamed through the checksum in
// bounded chunks and never retained, so integrity-only reads (Peek) run
// at constant memory no matter how large the snapshot is.
func load(path string, wantPayload bool) (Header, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return Header{}, nil, fmt.Errorf("checkpoint: %w", err)
	}
	size := info.Size()
	if size < int64(len(magic))+4 {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: %d bytes: %w", path, size, ErrCorrupt)
	}
	cr := &creader{r: bufio.NewReader(f)}
	var mag [8]byte
	if err := cr.readFull(mag[:]); err != nil {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: %w", path, ErrCorrupt)
	}
	if mag != magic {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: %w", path, ErrBadMagic)
	}
	badHeader := func() (Header, []byte, error) {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: header: %w", path, ErrCorrupt)
	}
	kindLen, err := binary.ReadUvarint(cr)
	if err != nil || kindLen > uint64(size) {
		return badHeader()
	}
	kind := make([]byte, kindLen)
	if err := cr.readFull(kind); err != nil {
		return badHeader()
	}
	h := Header{Kind: string(kind)}
	if h.Version, err = binary.ReadUvarint(cr); err != nil {
		return badHeader()
	}
	if h.Fingerprint, err = cr.uint64(); err != nil {
		return badHeader()
	}
	plen, err := binary.ReadUvarint(cr)
	if err != nil {
		return badHeader()
	}
	if rest := size - cr.n - 4; rest < 0 || plen != uint64(rest) {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: payload length %d, file holds %d: %w",
			path, plen, size-cr.n-4, ErrCorrupt)
	}
	var payload []byte
	if wantPayload {
		payload = make([]byte, plen)
		if err := cr.readFull(payload); err != nil {
			return Header{}, nil, fmt.Errorf("checkpoint: %s: %w", path, ErrCorrupt)
		}
	} else {
		buf := make([]byte, min(plen, 64<<10))
		for rest := plen; rest > 0; {
			n := min(rest, uint64(len(buf)))
			if err := cr.readFull(buf[:n]); err != nil {
				return Header{}, nil, fmt.Errorf("checkpoint: %s: %w", path, ErrCorrupt)
			}
			rest -= n
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(cr.r, trailer[:]); err != nil {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: %w", path, ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != cr.crc {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: checksum mismatch: %w", path, ErrCorrupt)
	}
	return h, payload, nil
}

// Read loads and validates the snapshot at path. kind must match the
// stored kind exactly; maxVersion is the newest payload schema the
// caller can decode (older versions are the caller's concern — the
// stored version is returned). A fingerprint mismatch is reported with
// ErrFingerprint; pass the caller's recomputed fingerprint.
func Read(path, kind string, maxVersion, fingerprint uint64) (version uint64, payload []byte, err error) {
	h, payload, err := ReadUnverified(path, kind, maxVersion)
	if err != nil {
		return 0, nil, err
	}
	if h.Fingerprint != fingerprint {
		return 0, nil, fmt.Errorf("checkpoint: %s: fingerprint %016x, want %016x: %w", path, h.Fingerprint, fingerprint, ErrFingerprint)
	}
	return h.Version, payload, nil
}

// ReadUnverified is Read without the fingerprint comparison, for
// callers inspecting a snapshot before the inputs it binds to are
// reconstructed (status displays, pre-resume peeks). Integrity, kind,
// and version are still enforced; resumes must go through Read.
func ReadUnverified(path, kind string, maxVersion uint64) (Header, []byte, error) {
	h, payload, err := load(path, true)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Kind != kind {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: kind %q, want %q: %w", path, h.Kind, kind, ErrKind)
	}
	if h.Version > maxVersion {
		return Header{}, nil, fmt.Errorf("checkpoint: %s: version %d, reader speaks <= %d: %w", path, h.Version, maxVersion, ErrVersion)
	}
	return h, payload, nil
}

// Peek reads only the header of the snapshot at path, validating magic
// and checksum but not kind, version, or fingerprint — for status
// displays and pre-resume inspection. The payload is streamed through
// the checksum without being retained, so Peek runs at constant memory
// on snapshots of any size.
func Peek(path string) (Header, error) {
	h, _, err := load(path, false)
	return h, err
}

// Enc accumulates a payload with the varint vocabulary the engines'
// binary keys already use. The zero value is ready; read the bytes off
// Buf when done.
type Enc struct {
	// Buf is the accumulated payload.
	Buf []byte
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Varint appends a signed (zig-zag) varint.
func (e *Enc) Varint(v int64) { e.Buf = binary.AppendVarint(e.Buf, v) }

// Int appends an int as a signed varint.
func (e *Enc) Int(v int) { e.Varint(int64(v)) }

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.Buf = append(e.Buf, b) }

// Bytes appends raw bytes length-prefixed with a uvarint.
func (e *Enc) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// Dec decodes a payload written with Enc. Errors latch: after the first
// malformed read every subsequent read returns zero values, so decoders
// are written straight-line and check Err once at the end.
type Dec struct {
	buf []byte
	err error
}

// NewDec returns a decoder over buf (which it does not copy).
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.buf) }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
	d.buf = nil
}

// Uvarint reads an unsigned varint (0 after an error).
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a signed varint (0 after an error).
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		// One-byte zig-zag encoding, the common case for step fields
		// and small counts, decoded without the general loop.
		u := int64(d.buf[0])
		d.buf = d.buf[1:]
		return u>>1 ^ -(u & 1)
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int reads a signed varint as an int.
func (d *Dec) Int() int { return int(d.Varint()) }

// Byte reads one raw byte (0 after an error).
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Bytes reads n raw bytes without copying (nil after an error). A
// negative or oversized n latches ErrCorrupt.
func (d *Dec) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// Uint64 reads a fixed-width little-endian uint64 (0 after an error).
func (d *Dec) Uint64() uint64 {
	b := d.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Fingerprint is a tiny FNV-1a 64 accumulator for building the input
// fingerprints stored in headers. Start from NewFingerprint and fold in
// every input that must match for a resume to be sound.
type Fingerprint uint64

// NewFingerprint returns the FNV-1a offset basis.
func NewFingerprint() Fingerprint { return 0xcbf29ce484222325 }

const fnvPrime = 0x00000100000001b3

// Write folds raw bytes into the fingerprint.
func (f Fingerprint) Write(b []byte) Fingerprint {
	for _, c := range b {
		f ^= Fingerprint(c)
		f *= fnvPrime
	}
	return f
}

// String folds a string (length-prefixed, so concatenations cannot
// collide across field boundaries).
func (f Fingerprint) String(s string) Fingerprint {
	f = f.Uint64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f ^= Fingerprint(s[i])
		f *= fnvPrime
	}
	return f
}

// Uint64 folds a fixed-width integer.
func (f Fingerprint) Uint64(v uint64) Fingerprint {
	for i := 0; i < 8; i++ {
		f ^= Fingerprint(byte(v >> (8 * i)))
		f *= fnvPrime
	}
	return f
}

// Int folds an int.
func (f Fingerprint) Int(v int) Fingerprint { return f.Uint64(uint64(int64(v))) }
