package explore

import (
	"bytes"
	"testing"

	"setagree/internal/core"
	"setagree/internal/machine"
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// TestMaterializeMatchesSuccessors checks every edge of explored graphs
// against successors(), the reference step function the symmetry path
// and tree replay use: the configuration an edge reaches must be the
// one its step yields from its source, key for key. Workers key
// successors from recycled object states and a reused register file,
// and the merge rebuilds only the successors it interns by re-stepping
// the parent; a wrong branch, a recycled state that is still referenced
// after intern, or a register file shared between configurations makes
// some edge's target differ from the reference. The system mixes a
// nondeterministic 2-SA object with a register and an n-PAC, and its
// programs run local arithmetic after an invoke.
func TestMaterializeMatchesSuccessors(t *testing.T) {
	t.Parallel()
	prog := machine.NewBuilder("mixed", 4).
		Invoke(2, 0, value.MethodPropose, machine.R(machine.RegInput), machine.Operand{}).
		Add(3, machine.R(2), machine.C(1)).
		Invoke(3, 1, value.MethodWrite, machine.R(2), machine.Operand{}).
		Invoke(3, 2, value.MethodProposeAt, machine.R(2), machine.R(machine.RegID1)).
		Invoke(3, 2, value.MethodDecide, machine.Operand{}, machine.R(machine.RegID1)).
		Invoke(3, 1, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Decide(machine.R(2)).
		MustBuild()
	for _, workers := range []int{1, 3} {
		sys := &System{
			Programs: []*machine.Program{prog, prog, prog},
			Objects:  []spec.Spec{objects.NewTwoSA(), objects.NewRegister(), core.NewPAC(3)},
			Inputs:   []value.Value{0, 1, 2},
		}
		rep, err := Check(sys, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		g := rep.g
		branched := false
		for id, c := range g.configs {
			it := g.edgeIter(id)
			var e edge
			for it.next(&e) {
				nexts, steps, err := successors(sys, c, e.step.Proc)
				if err != nil {
					t.Fatal(err)
				}
				if len(nexts) > 1 {
					branched = true
				}
				if e.step.Branch >= len(nexts) || steps[e.step.Branch] != e.step {
					t.Fatalf("workers=%d: config %d: edge step %s is not offered by successors()", workers, id, e.step)
				}
				want := nexts[e.step.Branch].AppendKey(nil)
				if got := g.configs[e.to].AppendKey(nil); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: config %d --%s--> %d: target is %s, want %s",
						workers, id, e.step, e.to, g.configs[e.to].Key(), nexts[e.step.Branch].Key())
				}
			}
		}
		if !branched {
			t.Fatalf("workers=%d: no nondeterministic step explored; the test is vacuous", workers)
		}
		t.Logf("workers=%d: %d states, %d transitions", workers, rep.States, rep.Transitions)
	}
}
