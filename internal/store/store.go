// Package store is the explorer's disk-backed configuration store: a
// partitioned hash table over mmap'd, append-only arenas. The explorer
// spills everything a level-synchronized BFS only reads back rarely —
// interned configuration keys, per-configuration outcome records, and
// the edge lists of completed levels — while the active frontier stays
// hot in memory.
//
// The store is SCRATCH, not durable state: arena files are truncated on
// Open and removed on Close, and a resumed run rebuilds them from the
// checkpoint container (which remains the single durable artifact).
// Leftover files from a crashed run are therefore harmless.
//
// Concurrency contract: the explorer alternates between an expand phase
// (the table is frozen; Lookup may run from any number of goroutines)
// and a single-threaded merge phase (Intern and Append mutate). The
// store relies on that level discipline instead of locks.
package store

import (
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"setagree/internal/obs"
)

// ErrBudget reports that the explorer's live heap exceeded the
// configured in-memory budget at a level barrier.
var ErrBudget = errors.New("store: in-memory budget exceeded")

// Options configures a disk-backed configuration store. The zero value
// disables it (fully in-memory exploration).
type Options struct {
	// Dir is the directory holding the store's arena files; empty
	// disables the store. The directory is created if absent; existing
	// arena files in it are truncated (the store is scratch).
	Dir string
	// Budget, when > 0, bounds the explorer's live heap in bytes,
	// checked at every level barrier: if the heap is still over budget
	// after a forced GC, the run fails with an error wrapping
	// ErrBudget. Zero means no bound.
	Budget int64
	// ChunkBytes overrides the arena chunk size (rounded up to a power
	// of two, minimum 4 KiB; 0 means the 16 MiB default). Small chunks
	// exist for tests that need to exercise chunk-boundary straddling.
	ChunkBytes int64
}

// Enabled reports whether the options select a disk-backed store.
func (o Options) Enabled() bool { return o.Dir != "" }

// ParseFlag parses the CLI form "dir" or "dir:budget" (e.g.
// "./run-store:1.5GB"); see ParseBudget for the budget syntax.
func ParseFlag(s string) (Options, error) {
	if s == "" {
		return Options{}, nil
	}
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		budget, err := ParseBudget(s[i+1:])
		if err != nil {
			return Options{}, fmt.Errorf("store: flag %q: %w", s, err)
		}
		if i == 0 {
			return Options{}, fmt.Errorf("store: flag %q: empty directory", s)
		}
		return Options{Dir: s[:i], Budget: budget}, nil
	}
	return Options{Dir: s}, nil
}

// ParseBudget parses a byte count: a number (decimals allowed) with an
// optional suffix B, K/KB/KiB, M/MB/MiB, or G/GB/GiB. All multiples are
// binary (1K = 1024 bytes). Counts that are not finite or do not fit
// in an int64 once multiplied are rejected: a negative budget means
// "no bound", so a wrapped conversion would silently lift the limit.
func ParseBudget(s string) (int64, error) {
	num := strings.TrimRight(s, "BbKkMmGgIi")
	mult := float64(1)
	switch strings.ToUpper(s[len(num):]) {
	case "", "B":
	case "K", "KB", "KIB":
		mult = 1 << 10
	case "M", "MB", "MIB":
		mult = 1 << 20
	case "G", "GB", "GIB":
		mult = 1 << 30
	default:
		return 0, fmt.Errorf("bad byte suffix %q", s[len(num):])
	}
	v, err := strconv.ParseFloat(num, 64)
	// !(v >= 0) also rejects NaN; the upper bound rejects +Inf and every
	// product too large to convert to int64.
	if err != nil || !(v >= 0) || v*mult >= 1<<63 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return int64(v * mult), nil
}

const (
	defaultChunkBytes = 1 << 24 // 16 MiB
	minChunkBytes     = 1 << 12
	numShards         = 256
)

// slot is one open-addressing table entry: the key's full hash, its
// bytes in the key arena, and the interned id. klen == 0 marks an
// empty slot (interned keys are never empty). In-memory index cost:
// 24 B per slot, ≤ 2 slots per key at the 0.75 maximum load factor.
type slot struct {
	hash uint64
	off  int64
	klen uint32
	id   int32
}

type shard struct {
	slots []slot
	n     int
}

// Store owns the three arenas and the partitioned key table. Open one
// per exploration; it is not reusable after Close.
type Store struct {
	dir    string
	budget int64

	// Keys holds the interned configuration keys, Meta the explorer's
	// per-configuration outcome records, Edges its encoded edge lists
	// (checkpoint section format). The explorer appends and decodes;
	// the store only indexes Keys.
	Keys  *Arena
	Meta  *Arena
	Edges *Arena

	// seed keys the table's hash. It is random per store: ids are
	// insertion ordinals and Lookup compares whole keys, so nothing the
	// store returns depends on it.
	seed    maphash.Seed
	shards  [numShards]shard
	count   int
	heapMax *obs.Gauge
}

// Open creates (or truncates) the store's arena files under opts.Dir.
// Metrics go to sink (nil disables them): the store.spilled_bytes
// counter totals bytes appended to the arenas, store.arena_faults
// counts appends/reads that straddled a chunk boundary, and the
// store.heap_bytes_max gauge high-water-marks the heap seen by budget
// checks.
func Open(opts Options, sink *obs.Sink) (*Store, error) {
	if !opts.Enabled() {
		return nil, errors.New("store: no directory configured")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	chunk := opts.ChunkBytes
	if chunk <= 0 {
		chunk = defaultChunkBytes
	}
	if chunk < minChunkBytes {
		chunk = minChunkBytes
	}
	// Round up to a power of two so arena addressing is shift+mask.
	for chunk&(chunk-1) != 0 {
		chunk &= chunk - 1
		chunk <<= 1
	}
	spilled := sink.Counter("store.spilled_bytes")
	faults := sink.Counter("store.arena_faults")
	s := &Store{
		dir:     opts.Dir,
		budget:  opts.Budget,
		seed:    maphash.MakeSeed(),
		heapMax: sink.Gauge("store.heap_bytes_max"),
	}
	for _, a := range []struct {
		dst  **Arena
		name string
	}{{&s.Keys, "keys.arena"}, {&s.Meta, "meta.arena"}, {&s.Edges, "edges.arena"}} {
		ar, err := newArena(filepath.Join(opts.Dir, a.name), chunk, spilled, faults)
		if err != nil {
			s.Close()
			return nil, err
		}
		*a.dst = ar
	}
	return s, nil
}

// Close unmaps and removes the arena files. Idempotent.
func (s *Store) Close() error {
	var err error
	for _, a := range []**Arena{&s.Keys, &s.Meta, &s.Edges} {
		if *a != nil {
			err = errors.Join(err, (*a).close())
			*a = nil
		}
	}
	return err
}

// Count returns the number of interned keys.
func (s *Store) Count() int { return s.count }

// Lookup probes the table for key. Safe for concurrent use while no
// Intern is running (the explorer's expand phase).
func (s *Store) Lookup(key []byte) (int, bool) {
	h := maphash.Bytes(s.seed, key)
	sh := &s.shards[h&(numShards-1)]
	if len(sh.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(sh.slots) - 1)
	for i := (h >> 8) & mask; ; i = (i + 1) & mask {
		sl := &sh.slots[i]
		if sl.klen == 0 {
			return 0, false
		}
		if sl.hash == h && int(sl.klen) == len(key) && s.Keys.Equal(sl.off, key) {
			return int(sl.id), true
		}
	}
}

// Intern appends key to the key arena and indexes it, returning the
// assigned id (the insertion ordinal). The caller has already verified
// the key is absent. Single-threaded (the explorer's merge phase).
func (s *Store) Intern(key []byte) (int, error) {
	if len(key) == 0 {
		return 0, errors.New("store: empty key")
	}
	if s.count > 1<<31-2 {
		return 0, fmt.Errorf("store: %d keys exceed the table's id width", s.count)
	}
	off, err := s.Keys.Append(key)
	if err != nil {
		return 0, err
	}
	h := maphash.Bytes(s.seed, key)
	sh := &s.shards[h&(numShards-1)]
	if 4*(sh.n+1) > 3*len(sh.slots) {
		sh.grow()
	}
	id := s.count
	sh.insert(slot{hash: h, off: off, klen: uint32(len(key)), id: int32(id)})
	sh.n++
	s.count++
	return id, nil
}

func (sh *shard) insert(sl slot) {
	mask := uint64(len(sh.slots) - 1)
	for i := (sl.hash >> 8) & mask; ; i = (i + 1) & mask {
		if sh.slots[i].klen == 0 {
			sh.slots[i] = sl
			return
		}
	}
}

func (sh *shard) grow() {
	old := sh.slots
	n := 2 * len(old)
	if n == 0 {
		n = 256
	}
	sh.slots = make([]slot, n)
	for _, sl := range old {
		if sl.klen != 0 {
			sh.insert(sl)
		}
	}
}

// CheckBudget enforces Options.Budget against the current live heap: if
// HeapAlloc exceeds the budget, a GC is forced (transient garbage must
// not fail a run) and the check repeats; a still-over-budget heap
// returns an error wrapping ErrBudget. Call at level barriers.
func (s *Store) CheckBudget() error {
	if s.budget <= 0 {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if int64(m.HeapAlloc) > s.budget {
		runtime.GC()
		runtime.ReadMemStats(&m)
	}
	s.heapMax.SetMax(int64(m.HeapAlloc))
	if int64(m.HeapAlloc) > s.budget {
		return fmt.Errorf("store: live heap %d bytes over the %d-byte budget: %w",
			m.HeapAlloc, s.budget, ErrBudget)
	}
	return nil
}
