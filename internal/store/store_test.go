package store

import (
	"bytes"
	"errors"
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
// minimum-size chunk: appends, zero-copy records, copies of straddling
// records, and the fault counter.
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
	var scratch []byte
	for start := int64(0); start < s.Keys.Len(); start += 90 {
		end := min(start+200, s.Keys.Len())
		var got []byte
		got, scratch = s.Keys.Record(start, end, scratch)
		if !bytes.Equal(got, want[start:end]) {
			t.Fatalf("Record(%d, %d) disagrees with the appended bytes", start, end)
		}
		if start>>s.Keys.shift == (end-1)>>s.Keys.shift {
			views++
			if &got[0] != &s.Keys.chunks[start>>s.Keys.shift][start&s.Keys.mask] {
				t.Fatalf("Record(%d, %d) copied a single-chunk range", start, end)
			}
		} else {
			straddles++
		}
	}
	if views == 0 || straddles == 0 {
		t.Fatalf("views %d, straddles %d: both paths must be exercised", views, straddles)
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
		t.Fatal("straddling appends and records counted no arena faults")
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
