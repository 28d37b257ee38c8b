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
// hot path: a full Check of Algorithm 2 at n=5 (7,960 states; Workers
// 1, so no scheduling enters the count) on both backends. Measured:
// 133,590 allocations in memory and 125,824 on the disk store (16.8 and
// 15.8 per state); both keep edges in one edge log, so neither pays an
// allocation per expanded configuration for its edges. The bounds add
// about 1% for shardOutPool refills after a GC; a change that brings
// back per-level buffers, per-configuration edge lists or
// per-successor Configs trips them.
func TestCheckAllocs(t *testing.T) {
	prot := programs.Algorithm2(5, 1)
	sys, err := prot.System([]value.Value{0, 1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	tsk := task.DAC{N: 5, P: 0}
	for _, tc := range []struct {
		name  string
		store bool
		max   float64
	}{
		{"memory", false, 134900},
		{"disk", true, 127100},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
