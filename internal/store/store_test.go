package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"setagree/internal/obs"
)

func TestParseFlag(t *testing.T) {
	cases := []struct {
		in     string
		dir    string
		budget int64
		err    bool
	}{
		{in: "", dir: ""},
		{in: "run-store", dir: "run-store"},
		{in: "run-store:1.5GB", dir: "run-store", budget: 3 << 29},
		{in: "a/b:100", dir: "a/b", budget: 100},
		{in: "a:2KiB", dir: "a", budget: 2048},
		{in: "a:64M", dir: "a", budget: 64 << 20},
		{in: "a:bogus", err: true},
		{in: ":1GB", err: true},
	}
	for _, c := range cases {
		got, err := ParseFlag(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseFlag(%q): want error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFlag(%q): %v", c.in, err)
			continue
		}
		if got.Dir != c.dir || got.Budget != c.budget {
			t.Errorf("ParseFlag(%q) = %+v, want dir %q budget %d", c.in, got, c.dir, c.budget)
		}
	}
}

func TestParseBudgetRejects(t *testing.T) {
	for _, in := range []string{"", "GB", "-1", "1TB", "1.2.3MB", "NaN", "Inf", "1e30", "1e30G"} {
		if v, err := ParseBudget(in); err == nil {
			t.Errorf("ParseBudget(%q) = %d, want error", in, v)
		}
	}
}

// FuzzParseBudget: parsing never panics, and every accepted budget is
// non-negative (a negative budget would mean "no bound").
func FuzzParseBudget(f *testing.F) {
	for _, seed := range []string{
		"", "100", "1.5GB", "2KiB", "64M", "bogus",
		"GB", "-1", "1TB", "1.2.3MB", "NaN", "Inf", "1e30", "1e30G",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if v, err := ParseBudget(s); err == nil && v < 0 {
			t.Errorf("ParseBudget(%q) = %d, want >= 0", s, v)
		}
	})
}

// TestArenaStraddle exercises records crossing chunk boundaries with a
// minimum-size chunk: appends, zero-copy views, range copies, chunked
// compares, and the fault counter.
func TestArenaStraddle(t *testing.T) {
	sink := obs.NewSink()
	s, err := Open(Options{Dir: t.TempDir(), ChunkBytes: 1}, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Keys.mask + 1; got != minChunkBytes {
		t.Fatalf("chunk size %d, want clamped to %d", got, minChunkBytes)
	}

	var want []byte
	rec := make([]byte, 100+19*90)
	for i := 0; i < 20; i++ {
		for j := range rec {
			rec[j] = byte(i + j)
		}
		off, err := s.Keys.Append(rec[:100+i*90])
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(len(want)) {
			t.Fatalf("append %d: offset %d, want %d", i, off, len(want))
		}
		want = append(want, rec[:100+i*90]...)
	}
	if s.Keys.Len() != int64(len(want)) {
		t.Fatalf("Len() = %d, want %d", s.Keys.Len(), len(want))
	}
	views, straddles := 0, 0
	for start := int64(0); start < s.Keys.Len(); start += 90 {
		end := min(start+200, s.Keys.Len())
		got := s.Keys.AppendRange([]byte("prefix"), start, end)
		if !bytes.Equal(got[6:], want[start:end]) || string(got[:6]) != "prefix" {
			t.Fatalf("AppendRange(%d, %d) disagrees with the appended bytes", start, end)
		}
		if v, ok := s.Keys.View(start, end); ok {
			views++
			if !bytes.Equal(v, want[start:end]) {
				t.Fatalf("View(%d, %d) disagrees with the appended bytes", start, end)
			}
		} else {
			straddles++
			if start>>s.Keys.shift == (end-1)>>s.Keys.shift {
				t.Fatalf("View(%d, %d) refused a single-chunk range", start, end)
			}
		}
	}
	if views == 0 || straddles == 0 {
		t.Fatalf("views %d, straddles %d: both paths must be exercised", views, straddles)
	}
	if !s.Keys.Equal(0, want) {
		t.Fatal("Equal over the whole straddled arena = false")
	}
	if s.Keys.Equal(1, want[:len(want)-1]) {
		t.Fatal("Equal at shifted offset = true")
	}
	var flat []byte
	for _, sec := range s.Keys.Sections(s.Keys.Len()) {
		flat = append(flat, sec...)
	}
	if !bytes.Equal(flat, want) {
		t.Fatal("Sections do not reassemble the arena")
	}
	snap := sink.Snapshot()
	if snap.Counters["store.spilled_bytes"] != int64(len(want)) {
		t.Fatalf("spilled_bytes = %d, want %d", snap.Counters["store.spilled_bytes"], len(want))
	}
	if snap.Counters["store.arena_faults"] == 0 {
		t.Fatal("straddling appends and compares counted no arena faults")
	}
}

func TestTableInternLookupGrow(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Enough keys to force shard growth past the initial 256 slots.
	const n = 200000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d-%d", i, i*i)) }
	for i := 0; i < n; i++ {
		if _, ok := s.Lookup(key(i)); ok {
			t.Fatalf("key %d present before intern", i)
		}
		id, err := s.Intern(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Intern assigned id %d, want %d", id, i)
		}
	}
	if s.Count() != n {
		t.Fatalf("Count() = %d, want %d", s.Count(), n)
	}
	for i := 0; i < n; i++ {
		id, ok := s.Lookup(key(i))
		if !ok || id != i {
			t.Fatalf("Lookup(key %d) = %d,%v", i, id, ok)
		}
	}
	if _, ok := s.Lookup([]byte("absent")); ok {
		t.Fatal("Lookup of absent key succeeded")
	}
	if _, err := s.Intern(nil); err == nil {
		t.Fatal("Intern of empty key succeeded")
	}
}

// TestInternDeterministicAcrossSeeds pins that nothing the store
// returns depends on its hash: two stores, each with its own random
// seed, intern the same key sequence — long keys that differ only in
// their last byte among them — to identical ids and agree on every
// Lookup, present and absent.
func TestInternDeterministicAcrossSeeds(t *testing.T) {
	var keys [][]byte
	for i := 0; i < 3000; i++ {
		k := bytes.Repeat([]byte{byte(i >> 8), byte(i)}, 40+i%7)
		keys = append(keys, k, append(bytes.Clone(k), 0), append(bytes.Clone(k), 1))
	}
	var stores [2]*Store
	for si := range stores {
		s, err := Open(Options{Dir: t.TempDir()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i, k := range keys {
			id, err := s.Intern(k)
			if err != nil {
				t.Fatal(err)
			}
			if id != i {
				t.Fatalf("store %d: key %d interned as id %d", si, i, id)
			}
		}
		stores[si] = s
	}
	for i, k := range keys {
		a, aok := stores[0].Lookup(k)
		b, bok := stores[1].Lookup(k)
		if !aok || !bok || a != i || b != i {
			t.Fatalf("Lookup(key %d) = %d,%v and %d,%v; want %d in both", i, a, aok, b, bok, i)
		}
		absent := append(bytes.Clone(k), 2)
		if _, ok := stores[0].Lookup(absent); ok {
			t.Fatalf("store 0 found absent key %d", i)
		}
		if _, ok := stores[1].Lookup(absent); ok {
			t.Fatalf("store 1 found absent key %d", i)
		}
	}
}

func TestCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Keys.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"keys.arena", "meta.arena", "edges.arena"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s missing before Close: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"keys.arena", "meta.arena", "edges.arena"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survives Close (err %v)", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestOpenTruncatesLeftovers verifies crash leftovers do not leak into
// a new run: reopening a dir starts the arenas empty.
func TestOpenTruncatesLeftovers(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "keys.arena"), bytes.Repeat([]byte("x"), 1<<16), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Keys.Len() != 0 {
		t.Fatalf("reopened arena Len() = %d, want 0", s.Keys.Len())
	}
}

func TestCheckBudget(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Budget: 1}, obs.NewSink())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CheckBudget(); !errors.Is(err, ErrBudget) {
		t.Fatalf("1-byte budget: err = %v, want ErrBudget", err)
	}
	s.budget = 0
	if err := s.CheckBudget(); err != nil {
		t.Fatalf("unbounded budget: %v", err)
	}
}
