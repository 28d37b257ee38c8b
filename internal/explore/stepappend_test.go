package explore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/spec"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// stepOnly forwards a spec's Step and its Deterministic and
// ValueOblivious extensions but hides StepAppend, so every step takes
// spec.StepAppend's fallback through Step — the path of out-of-tree
// specs and of wrappers such as a timing decorator.
type stepOnly struct{ spec.Spec }

func (s stepOnly) Deterministic() bool  { return spec.Deterministic(s.Spec) }
func (s stepOnly) ValueOblivious() bool { return spec.ValueOblivious(s.Spec) }

// TestStepAppendFallbackEquivalence runs Algorithm 2 with its objects
// bare (recycling StepAppend in the workers, re-step at intern) and
// behind stepOnly (Step's fresh states throughout), at n=4 and n=5,
// workers 1 and 4, on both backends. The Reports, DOT renderings,
// event streams and final checkpoint files must be byte-identical, so
// recycled scratch states never leak into a key, an interned
// configuration or a snapshot.
func TestStepAppendFallbackEquivalence(t *testing.T) {
	t.Parallel()
	for _, n := range []int{4, 5} {
		for _, workers := range []int{1, 4} {
			for _, disk := range []bool{false, true} {
				n, workers, disk := n, workers, disk
				t.Run(fmt.Sprintf("n=%d/workers=%d/disk=%v", n, workers, disk), func(t *testing.T) {
					t.Parallel()
					in := make([]value.Value, n)
					for i := range in {
						in[i] = value.Value(i % 2)
					}
					bare, err := programs.Algorithm2(n, 1).System(in)
					if err != nil {
						t.Fatal(err)
					}
					wrapped := *bare
					wrapped.Objects = make([]spec.Spec, len(bare.Objects))
					for j, o := range bare.Objects {
						wrapped.Objects[j] = stepOnly{o}
					}
					tsk := task.DAC{N: n, P: 0}
					run := func(sys *explore.System) (*explore.Report, []byte, []byte) {
						dir := t.TempDir()
						var events bytes.Buffer
						opts := explore.Options{
							Workers:        workers,
							Valency:        true,
							HeartbeatEvery: 64,
							Events:         obs.NewEmitterAt(&events, fixedClock),
							Checkpoint:     explore.CheckpointOptions{Path: filepath.Join(dir, "run.ckpt")},
						}
						if disk {
							opts.Store = store.Options{Dir: filepath.Join(dir, "store")}
						}
						rep, err := explore.Check(sys, tsk, opts)
						if err != nil {
							t.Fatalf("Check: %v", err)
						}
						t.Cleanup(func() { rep.Close() })
						ckpt, err := os.ReadFile(opts.Checkpoint.Path)
						if err != nil {
							t.Fatal(err)
						}
						return rep, events.Bytes(), ckpt
					}
					bareRep, bareEvents, bareCkpt := run(bare)
					wrapRep, wrapEvents, wrapCkpt := run(&wrapped)
					sameReport(t, "Step-only vs StepAppend", wrapRep, bareRep)
					if !bytes.Equal(wrapEvents, bareEvents) {
						t.Errorf("event streams differ")
					}
					if !bytes.Equal(wrapCkpt, bareCkpt) {
						t.Errorf("checkpoint files differ (%d vs %d bytes)", len(wrapCkpt), len(bareCkpt))
					}
				})
			}
		}
	}
}
