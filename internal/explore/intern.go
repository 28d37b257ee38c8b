// Configuration interning, and the append-only byte log the key log
// shares with the edge log (and, always on the heap, the snapshot's tree
// section). The byte log's methods are the only place either log
// branches on the backend.
package explore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"sync"

	"setagree/internal/store"
)

// byteLog is an append-only byte log: a store arena on a disk-backed
// run, heap chunks otherwise. Heap chunks never move once allocated —
// 4 KiB, doubling to 64 KiB, then 64 KiB each — so a growing log
// neither copies its bytes nor holds two arrays at once, and views
// into it stay valid while it grows.
type byteLog struct {
	arena  *store.Arena
	chunks [][]byte // heap chunks, each allocated at its full size
	n      int64    // heap bytes appended
}

const (
	minChunkShift = 12 // the first heap chunk holds 4 KiB
	maxChunkShift = 16 // chunks stop doubling at 64 KiB
	// growBytes is what the doubling chunks hold: 4+8+16+32 KiB.
	growBytes = 1<<maxChunkShift - 1<<minChunkShift
)

// chunkAt locates heap offset off: its chunk index and the offset
// within that chunk.
func chunkAt(off int64) (int, int64) {
	if off < growBytes {
		i := bits.Len64(uint64(off>>minChunkShift)+1) - 1
		return i, off - (1<<(minChunkShift+i) - 1<<minChunkShift)
	}
	off -= growBytes
	return maxChunkShift - minChunkShift + int(off>>maxChunkShift), off & (1<<maxChunkShift - 1)
}

// chunkSize is the size of heap chunk i.
func chunkSize(i int) int {
	return 1 << min(minChunkShift+i, maxChunkShift)
}

// append writes b at the end of the log and returns its start offset.
func (l *byteLog) append(b []byte) (int64, error) {
	if l.arena != nil {
		return l.arena.Append(b)
	}
	start := l.n
	for len(b) > 0 {
		i, co := chunkAt(l.n)
		if i == len(l.chunks) {
			l.chunks = append(l.chunks, make([]byte, chunkSize(i)))
		}
		k := copy(l.chunks[i][co:], b)
		b = b[k:]
		l.n += int64(k)
	}
	return start, nil
}

// len returns the number of bytes appended so far.
func (l *byteLog) len() int64 {
	if l.arena != nil {
		return l.arena.Len()
	}
	return l.n
}

// reset empties the log and re-targets it at arena (nil: the heap). A
// heap log keeps its chunks for the next use.
func (l *byteLog) reset(arena *store.Arena) {
	l.arena, l.n = arena, 0
}

// record returns the log bytes [start, end): a zero-copy view unless
// the record straddles a chunk boundary, in which case it is copied
// into scratch, returned for reuse as buf (nil scratch allocates a
// private copy), as store.Arena.Record does.
func (l *byteLog) record(start, end int64, scratch []byte) (rec, buf []byte) {
	if l.arena != nil {
		return l.arena.Record(start, end, scratch)
	}
	if end <= start {
		return nil, scratch
	}
	i, co := chunkAt(start)
	if c := l.chunks[i]; end-start <= int64(len(c))-co {
		return c[co : co+end-start], scratch
	}
	buf = scratch[:0]
	for start < end {
		i, co = chunkAt(start)
		c := l.chunks[i][co:]
		c = c[:min(int64(len(c)), end-start)]
		buf = append(buf, c...)
		start += int64(len(c))
	}
	return buf, buf
}

// sections returns zero-copy views covering the log's prefix [0, upTo).
// They stay stable while the log only grows at or beyond upTo: neither
// arena nor heap chunks ever move.
func (l *byteLog) sections(upTo int64) [][]byte {
	if l.arena != nil {
		return l.arena.Sections(upTo)
	}
	var out [][]byte
	for off := int64(0); off < upTo; {
		i, co := chunkAt(off)
		c := l.chunks[i][co:]
		c = c[:min(int64(len(c)), upTo-off)]
		out = append(out, c)
		off += int64(len(c))
	}
	return out
}

// slot is one table entry, 24 bytes. klen == 0 marks an empty slot
// (interned keys are never empty).
type slot struct {
	hash uint64
	off  int64 // the key's offset in the key log
	klen uint32
	id   int32
}

const (
	minSlots = 64        // the smallest table, sized for a small sweep check
	maxKeys  = 1<<31 - 1 // ids are int32
)

// internTable maps configuration keys to ids for both backends: open
// addressing with linear probing at ≤ 0.75 load over an append-only
// key log. Ids are insertion ordinals and probes compare whole keys, so
// nothing it returns depends on the hash seed. Expansion looks keys up
// from many goroutines while no merge (or restore) runs; only those
// intern.
type internTable struct {
	seed  maphash.Seed
	slots []slot
	n     int // interned keys; the next id
	keys  byteLog
}

// tablePool recycles the tables of finished searches: only expansion,
// the merge and restore probe a table, so bfs returns it on exit, and a
// sweep's thousands of small checks reuse a few tables.
var tablePool = sync.Pool{New: func() any { return &internTable{seed: maphash.MakeSeed()} }}

// reset empties t for a check whose key log is arena (nil: the heap),
// with cleared slots sized for as many keys as t held in its previous
// check. The heap key log keeps its chunks.
func (t *internTable) reset(arena *store.Arena) {
	size := minSlots
	for 4*t.n > 3*size {
		size *= 2
	}
	if cap(t.slots) < size {
		t.slots = make([]slot, size)
	}
	t.slots = t.slots[:size]
	clear(t.slots)
	t.n = 0
	t.keys.reset(arena)
}

// lookup returns the id of key, if interned.
func (t *internTable) lookup(key []byte) (int, bool) {
	h := maphash.Bytes(t.seed, key)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.klen == 0 {
			return 0, false
		}
		if sl.hash == h && int(sl.klen) == len(key) {
			// A key straddling a chunk boundary is copied; that is one key
			// per chunk, so lookups share no scratch.
			if rec, _ := t.keys.record(sl.off, sl.off+int64(len(key)), nil); bytes.Equal(rec, key) {
				return int(sl.id), true
			}
		}
	}
}

// intern appends key to the key log and indexes it under the next id,
// which it returns. The caller has verified the key is absent. A table
// holding maxKeys keys refuses with an error wrapping ErrStateLimit
// rather than wrap an id.
func (t *internTable) intern(key []byte) (int, error) {
	if len(key) == 0 {
		return 0, errors.New("explore: internal: empty configuration key")
	}
	if t.n >= maxKeys {
		return 0, fmt.Errorf("explore: %d configurations fill the interning table's int32 ids: %w", t.n, ErrStateLimit)
	}
	off, err := t.keys.append(key)
	if err != nil {
		return 0, err
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]slot, 2*len(old))
		for _, sl := range old {
			if sl.klen != 0 {
				t.insert(sl)
			}
		}
	}
	t.insert(slot{hash: maphash.Bytes(t.seed, key), off: off, klen: uint32(len(key)), id: int32(t.n)})
	t.n++
	return t.n - 1, nil
}

// insert files sl in the first free slot of its probe sequence.
func (t *internTable) insert(sl slot) {
	mask := uint64(len(t.slots) - 1)
	for i := sl.hash & mask; ; i = (i + 1) & mask {
		if t.slots[i].klen == 0 {
			t.slots[i] = sl
			return
		}
	}
}
