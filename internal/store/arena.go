package store

import (
	"errors"
	"fmt"
	"math/bits"
	"os"

	"setagree/internal/obs"
)

// Arena is an append-only byte log backed by fixed-size mmap'd chunks
// of one file. Chunks never move once mapped, so readers (including the
// checkpoint writer's background goroutine) hold stable views of the
// committed prefix while the single appender extends the tail. Records
// are not padded to chunk boundaries; a record straddling one is read
// across chunks and counted on the store.arena_faults counter.
type Arena struct {
	f      *os.File
	path   string
	chunks [][]byte
	size   int64
	shift  uint
	mask   int64

	spilled *obs.Counter
	faults  *obs.Counter
}

// newArena creates (truncating) the arena file at path with power-of-two
// chunkBytes chunks.
func newArena(path string, chunkBytes int64, spilled, faults *obs.Counter) (*Arena, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Arena{
		f:       f,
		path:    path,
		shift:   uint(bits.TrailingZeros64(uint64(chunkBytes))),
		mask:    chunkBytes - 1,
		spilled: spilled,
		faults:  faults,
	}, nil
}

// Len returns the number of bytes appended so far.
func (a *Arena) Len() int64 { return a.size }

// Append writes b at the end of the arena and returns its start offset.
func (a *Arena) Append(b []byte) (int64, error) {
	off := a.size
	if len(b) == 0 {
		return off, nil
	}
	if off>>a.shift != (off+int64(len(b))-1)>>a.shift {
		a.faults.Inc()
	}
	a.spilled.Add(int64(len(b)))
	for len(b) > 0 {
		if a.size == int64(len(a.chunks))<<a.shift {
			if err := a.addChunk(); err != nil {
				return 0, err
			}
		}
		c := a.chunks[a.size>>a.shift]
		n := copy(c[a.size&a.mask:], b)
		a.size += int64(n)
		b = b[n:]
	}
	return off, nil
}

func (a *Arena) addChunk() error {
	chunkBytes := a.mask + 1
	end := (int64(len(a.chunks)) + 1) * chunkBytes
	if err := a.f.Truncate(end); err != nil {
		return fmt.Errorf("store: grow %s: %w", a.path, err)
	}
	c, err := mapChunk(a.f, end-chunkBytes, int(chunkBytes))
	if err != nil {
		return fmt.Errorf("store: map %s: %w", a.path, err)
	}
	a.chunks = append(a.chunks, c)
	return nil
}

// Record returns the bytes [start, end): a zero-copy slice of the
// chunk holding them or, when the range straddles a chunk boundary
// (counted as a store.arena_faults fault), a copy in scratch, returned
// for reuse as buf (nil scratch allocates a private copy). The range
// must lie below Len(); the arena is the explorer's own write-once
// data, so a bad range is an internal invariant failure and panics via
// the bounds check.
func (a *Arena) Record(start, end int64, scratch []byte) (rec, buf []byte) {
	if end <= start || start>>a.shift == (end-1)>>a.shift {
		co := start & a.mask
		return a.chunks[start>>a.shift][co : co+end-start], scratch
	}
	a.faults.Inc()
	buf = scratch[:0]
	for start < end {
		c := a.chunks[start>>a.shift]
		co := start & a.mask
		n := min(int64(len(c))-co, end-start)
		buf = append(buf, c[co:co+n]...)
		start += n
	}
	return buf, buf
}

// Sections returns chunk-backed views covering [0, upTo), suitable for
// checkpoint.WriteV: zero-copy, and stable while the appender only
// writes at or beyond upTo.
func (a *Arena) Sections(upTo int64) [][]byte {
	var out [][]byte
	for off := int64(0); off < upTo; {
		c := a.chunks[off>>a.shift]
		co := off & a.mask
		n := int64(len(c)) - co
		if off+n > upTo {
			n = upTo - off
		}
		out = append(out, c[co:co+n])
		off += n
	}
	return out
}

// close unmaps the chunks and removes the backing file (the arena is
// scratch; the checkpoint container is the durable artifact).
func (a *Arena) close() error {
	var err error
	for _, c := range a.chunks {
		err = errors.Join(err, unmapChunk(c))
	}
	a.chunks = nil
	if a.f != nil {
		err = errors.Join(err, a.f.Close())
		a.f = nil
		err = errors.Join(err, os.Remove(a.path))
	}
	return err
}
