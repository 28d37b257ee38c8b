// Package store is the explorer's disk-backed configuration store:
// three mmap'd, append-only arenas. The explorer spills everything a
// level-synchronized BFS only reads back rarely — the key log under its
// interning table, per-configuration outcome records, and the edge
// lists of completed levels — while the active frontier and the table's
// slots stay hot in memory.
//
// The store is SCRATCH, not durable state: arena files are truncated on
// Open and removed on Close, and a resumed run rebuilds them from the
// checkpoint container (which remains the single durable artifact).
// Leftover files from a crashed run are therefore harmless.
//
// Concurrency contract: the explorer alternates between an expand phase
// (the arenas are frozen; reads may run from any number of goroutines)
// and a single-threaded merge phase (Append mutates). The store relies
// on that level discipline instead of locks.
package store

import (
	"errors"
	"fmt"
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
)

// Store owns the three arenas. Open one per exploration; it is not
// reusable after Close.
type Store struct {
	budget int64

	// Keys holds the explorer's key log (the interned configuration
	// keys its table indexes), Meta its per-configuration outcome
	// records, Edges its encoded edge lists (checkpoint section format).
	// The explorer appends and decodes; the store only owns the bytes.
	Keys  *Arena
	Meta  *Arena
	Edges *Arena

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
		budget:  opts.Budget,
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
