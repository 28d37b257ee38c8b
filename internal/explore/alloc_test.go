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
// key log are at steady state. Measured: 25,205 allocations in memory
// and 25,063 on the disk store at n=5 (3.2 and 3.1 per state), 819 and
// 833 at n=3 (4.5 per state). Workers step objects into recycled
// transition buffers and resume processes into a reused register file,
// so a successor costs nothing to key; the merge builds only the
// successors it interns, and then allocates just the stepped object's
// state (an n-PAC state is two: the struct and its V array). The n=5
// bounds add 1%. The n=3 bounds add about 6%: under -race, sync.Pool
// drops a random quarter of Puts, and refilling the table and a
// shardOut (with its per-object transition buffers) cost up to 29 and
// 40 allocations over 21 race runs — 848 and 873 at most. A change that
// brings back per-state keys, per-level buffers, per-configuration edge
// lists, per-successor Configs or per-transition object states trips
// them.
func TestCheckAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    []value.Value
		store bool
		max   float64
	}{
		{"memory", []value.Value{0, 1, 0, 1, 0}, false, 25460},
		{"disk", []value.Value{0, 1, 0, 1, 0}, true, 25320},
		{"n3-memory", []value.Value{1, 0, 0}, false, 870},
		{"n3-disk", []value.Value{1, 0, 0}, true, 885},
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
