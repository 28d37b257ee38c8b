package explore_test

import (
	"testing"

	"setagree/internal/explore"
	"setagree/internal/programs"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// TestCheckAllocs is a deterministic allocation guard on the expansion
// hot path: full Checks of Algorithm 2 (Workers 1, so no scheduling
// enters the count) on both backends, at n=5 (7,960 states) and at the
// sweep-sized n=3 (184 states), where the pooled interning table and
// key log are at steady state. Measured: 125,704 allocations in memory
// and 125,571 on the disk store at n=5 (15.8 per state), 1,955 and
// 1,974 at n=3 (10.6 and 10.7 per state). Both backends intern
// through one table over a key log and keep edges in one edge log, so
// neither pays an allocation per state for its key or per expanded
// configuration for its edges. The n=5 bounds add about 1% for pool
// refills after a GC. The n=3 bounds add about 3%: under -race,
// sync.Pool drops a random quarter of Puts, and refilling the table
// and a shardOut costs up to 36 allocations averaged over the runs —
// 1,983 and 2,011 at most in 8 race runs. A change that brings back
// per-state keys, per-level buffers, per-configuration edge lists or
// per-successor Configs trips them.
func TestCheckAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    []value.Value
		store bool
		max   float64
	}{
		{"memory", []value.Value{0, 1, 0, 1, 0}, false, 126900},
		{"disk", []value.Value{0, 1, 0, 1, 0}, true, 126900},
		{"n3-memory", []value.Value{1, 0, 0}, false, 2005},
		{"n3-disk", []value.Value{1, 0, 0}, true, 2035},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.in)
			sys, err := programs.Algorithm2(n, 1).System(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			tsk := task.DAC{N: n, P: 0}
			opts := explore.Options{Workers: 1, Valency: true}
			if tc.store {
				opts.Store = store.Options{Dir: t.TempDir()}
			}
			states := 0
			allocs := testing.AllocsPerRun(3, func() {
				rep, err := explore.Check(sys, tsk, opts)
				if err != nil {
					t.Fatal(err)
				}
				states = rep.States
				rep.Close()
			})
			t.Logf("%s: %.0f allocs per Check (%d states, %.1f per state)", tc.name, allocs, states, allocs/float64(states))
			if allocs > tc.max {
				t.Errorf("%s: %.0f allocs per Check, bound %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}
