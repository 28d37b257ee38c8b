package enumerate_test

import (
	"testing"

	"setagree/internal/enumerate"
	"setagree/internal/spec"
)

// stepOnly forwards a spec's Step and its Deterministic and
// ValueOblivious extensions but hides StepAppend, so every check takes
// spec.StepAppend's fallback through Step.
type stepOnly struct{ spec.Spec }

func (s stepOnly) Deterministic() bool  { return spec.Deterministic(s.Spec) }
func (s stepOnly) ValueOblivious() bool { return spec.ValueOblivious(s.Spec) }

// TestStepAppendFallbackSweep runs the Theorem 4.2 depth-1 DAC sweep
// with its objects bare and behind stepOnly: the reports must render
// byte-identically, so the explorer's recycled scratch states change no
// verdict, count, witness or memo decision of a sweep's thousands of
// small checks.
func TestStepAppendFallbackSweep(t *testing.T) {
	t.Parallel()
	vectors := binaryVectors(3)
	bare := theorem42Family(1)
	wrapped := theorem42Family(1)
	for j, o := range wrapped.Objects {
		wrapped.Objects[j] = stepOnly{o}
	}
	var got [2]string
	for i, f := range []*enumerate.Family{bare, wrapped} {
		rep, err := enumerate.FalsifyDAC(f, 3, vectors, enumerate.SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got[i] = renderFull(rep)
	}
	if got[0] != got[1] {
		t.Errorf("Step-only sweep renders differently:\n%s\nvs bare\n%s", got[1], got[0])
	}
}
