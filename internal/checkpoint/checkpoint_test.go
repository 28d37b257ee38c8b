package checkpoint

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func writeSample(t *testing.T, dir string) (string, Header, []byte) {
	t.Helper()
	path := filepath.Join(dir, "sample.ckpt")
	h := Header{Kind: "test.payload", Version: 3, Fingerprint: 0xdeadbeefcafef00d}
	payload := []byte("hello durable world")
	if err := Write(path, h, payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path, h, payload
}

func TestRoundTrip(t *testing.T) {
	path, h, payload := writeSample(t, t.TempDir())
	version, got, err := Read(path, h.Kind, h.Version, h.Fingerprint)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if version != h.Version {
		t.Errorf("version = %d, want %d", version, h.Version)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}
	peek, err := Peek(path)
	if err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if peek != h {
		t.Errorf("Peek = %+v, want %+v", peek, h)
	}
}

func TestWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path, h, payload := writeSample(t, dir)
	// Overwrite with a second snapshot; the temp file must be gone and
	// the content replaced.
	if err := Write(path, h, []byte("second")); err != nil {
		t.Fatalf("second Write: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after overwrite, want 1 (no temp leftovers)", len(entries))
	}
	_, got, err := Read(path, h.Kind, h.Version, h.Fingerprint)
	if err != nil {
		t.Fatalf("Read after overwrite: %v", err)
	}
	if string(got) == string(payload) {
		t.Error("overwrite did not replace the payload")
	}
}

// TestRejections pins the typed refusal for every corruption and
// mismatch class a resume must reject before trusting payload bytes.
func TestRejections(t *testing.T) {
	dir := t.TempDir()
	path, h, _ := writeSample(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func([]byte) []byte) string {
		p := filepath.Join(dir, name)
		buf := append([]byte(nil), raw...)
		if err := os.WriteFile(p, f(buf), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := []struct {
		name string
		path string
		kind string
		ver  uint64
		fp   uint64
		want error
	}{
		{"bad magic", mutate("magic.ckpt", func(b []byte) []byte { b[0] = 'X'; return b }), h.Kind, h.Version, h.Fingerprint, ErrBadMagic},
		{"truncated", mutate("trunc.ckpt", func(b []byte) []byte { return b[:len(b)-5] }), h.Kind, h.Version, h.Fingerprint, ErrCorrupt},
		{"trailing garbage", mutate("trail.ckpt", func(b []byte) []byte { return append(b, 0xEE, 0xEE) }), h.Kind, h.Version, h.Fingerprint, ErrCorrupt},
		{"bit flip", mutate("flip.ckpt", func(b []byte) []byte { b[len(b)-7] ^= 0x40; return b }), h.Kind, h.Version, h.Fingerprint, ErrCorrupt},
		{"tiny file", mutate("tiny.ckpt", func(b []byte) []byte { return b[:3] }), h.Kind, h.Version, h.Fingerprint, ErrCorrupt},
		{"wrong kind", path, "other.engine", h.Version, h.Fingerprint, ErrKind},
		{"version skew", path, h.Kind, h.Version - 1, h.Fingerprint, ErrVersion},
		{"fingerprint", path, h.Kind, h.Version, h.Fingerprint + 1, ErrFingerprint},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Read(tc.path, tc.kind, tc.ver, tc.fp)
			if !errors.Is(err, tc.want) {
				t.Errorf("Read = %v, want %v", err, tc.want)
			}
		})
	}

	if _, err := Peek(mutate("peek-flip.ckpt", func(b []byte) []byte { b[9] ^= 1; return b })); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Peek on corrupt = %v, want ErrCorrupt", err)
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Varint(-77)
	e.Int(42)
	e.Byte(0xAB)
	e.Bytes([]byte("xyz"))
	d := NewDec(e.Buf)
	if v := d.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -77 {
		t.Errorf("Varint = %d", v)
	}
	if v := d.Int(); v != 42 {
		t.Errorf("Int = %d", v)
	}
	if v := d.Byte(); v != 0xAB {
		t.Errorf("Byte = %x", v)
	}
	if v := d.Bytes(int(d.Uvarint())); string(v) != "xyz" {
		t.Errorf("Bytes = %q", v)
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Errorf("err=%v len=%d", d.Err(), d.Len())
	}
}

// TestVarintAcrossWidths round-trips signed varints on both sides of
// the one-byte fast path (|v| <= 64) and far past it.
func TestVarintAcrossWidths(t *testing.T) {
	var vs []int64
	for v := int64(-130); v <= 130; v++ {
		vs = append(vs, v)
	}
	vs = append(vs, 1<<40, -1<<40, math.MaxInt64, math.MinInt64)
	var e Enc
	for _, v := range vs {
		e.Varint(v)
	}
	d := NewDec(e.Buf)
	for _, want := range vs {
		if got := d.Varint(); got != want {
			t.Fatalf("Varint = %d, want %d", got, want)
		}
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Errorf("err=%v len=%d", d.Err(), d.Len())
	}
}

// TestDecLatchesErrors pins the straight-line decode contract: the
// first malformed read latches, every later read is a zero value.
func TestDecLatchesErrors(t *testing.T) {
	d := NewDec([]byte{0x80}) // unterminated varint
	if v := d.Uvarint(); v != 0 {
		t.Errorf("Uvarint on junk = %d", v)
	}
	if d.Err() == nil {
		t.Fatal("no latched error")
	}
	if v := d.Byte(); v != 0 {
		t.Errorf("Byte after latch = %d", v)
	}
	if b := d.Bytes(1); b != nil {
		t.Errorf("Bytes after latch = %v", b)
	}
	d2 := NewDec([]byte{5})
	if b := d2.Bytes(int(d2.Uvarint())); b != nil || d2.Err() == nil {
		t.Errorf("oversized Bytes: b=%v err=%v", b, d2.Err())
	}
}

func TestFingerprintSeparation(t *testing.T) {
	a := NewFingerprint().String("ab").String("c")
	b := NewFingerprint().String("a").String("bc")
	if a == b {
		t.Error("length-prefixed string folding collided across field boundaries")
	}
	if NewFingerprint().Int(-1) == NewFingerprint().Int(1) {
		t.Error("Int folding collided")
	}
}
