package spec_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"setagree/internal/core"
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// zooEntry pairs a spec with a generator of random in-interface ops.
type zooEntry struct {
	name string
	sp   spec.Spec
	gen  func(rng *rand.Rand) value.Op
}

func zoo() []zooEntry {
	val := func(rng *rand.Rand) value.Value { return value.Value(rng.Intn(5)) }
	return []zooEntry{
		{"register", objects.NewRegister(), func(rng *rand.Rand) value.Op {
			if rng.Intn(2) == 0 {
				return value.Write(val(rng))
			}
			return value.Read()
		}},
		{"3-consensus", objects.NewConsensus(3), func(rng *rand.Rand) value.Op {
			return value.Propose(val(rng))
		}},
		{"2-SA", objects.NewTwoSA(), func(rng *rand.Rand) value.Op {
			return value.Propose(val(rng))
		}},
		{"(4,2)-SA", objects.NewSetAgreement(4, 2), func(rng *rand.Rand) value.Op {
			return value.Propose(val(rng))
		}},
		{"3-PAC", core.NewPAC(3), func(rng *rand.Rand) value.Op {
			if rng.Intn(2) == 0 {
				return value.ProposeAt(val(rng), 1+rng.Intn(3))
			}
			return value.Decide(1 + rng.Intn(3))
		}},
		{"(3,2)-PAC", core.NewPACM(3, 2), func(rng *rand.Rand) value.Op {
			switch rng.Intn(3) {
			case 0:
				return value.ProposeP(val(rng), 1+rng.Intn(3))
			case 1:
				return value.DecideP(1 + rng.Intn(3))
			default:
				return value.ProposeC(val(rng))
			}
		}},
		{"(3,2)-PAC as 3-PAC", core.NewPACFace(core.NewPACM(3, 2)), func(rng *rand.Rand) value.Op {
			if rng.Intn(2) == 0 {
				return value.ProposeAt(val(rng), 1+rng.Intn(3))
			}
			return value.Decide(1 + rng.Intn(3))
		}},
		{"(3,2)-PAC as 2-consensus", core.NewConsensusFace(core.NewPACM(3, 2)), func(rng *rand.Rand) value.Op {
			return value.Propose(val(rng))
		}},
		{"O'_2", core.NewOPrime(2, nil), func(rng *rand.Rand) value.Op {
			return value.ProposeK(val(rng), 1+rng.Intn(3))
		}},
		{"O'_2-base", core.NewOPrimeFromBase(2), func(rng *rand.Rand) value.Op {
			return value.ProposeK(val(rng), 1+rng.Intn(3))
		}},
		{"queue", objects.NewQueue(), func(rng *rand.Rand) value.Op {
			if rng.Intn(2) == 0 {
				return value.Enqueue(val(rng))
			}
			return value.Dequeue()
		}},
		{"counter", objects.NewCounter(), func(rng *rand.Rand) value.Op {
			return value.FetchAdd(val(rng))
		}},
		{"tas", objects.NewTestAndSet(), func(rng *rand.Rand) value.Op {
			return value.TestAndSet()
		}},
	}
}

// TestStepPurity checks the spec contract every engine relies on:
// Step never mutates its input state, and repeated calls with the same
// (state, op) return identical transition sets (purity/determinism of
// the *relation*; nondeterministic specs must offer identical branch
// lists). Random walks over the whole zoo.
func TestStepPurity(t *testing.T) {
	t.Parallel()
	for _, entry := range zoo() {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			t.Parallel()
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				st := entry.sp.Init()
				for i := 0; i < 25; i++ {
					op := entry.gen(rng)
					before := st.Key()
					ts1, err1 := entry.sp.Step(st, op)
					ts2, err2 := entry.sp.Step(st, op)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%s: errors differ on repeat: %v vs %v", op, err1, err2)
					}
					if err1 != nil {
						continue
					}
					if st.Key() != before {
						t.Fatalf("%s: Step mutated its input state", op)
					}
					if len(ts1) != len(ts2) {
						t.Fatalf("%s: branch counts differ: %d vs %d", op, len(ts1), len(ts2))
					}
					if len(ts1) == 0 {
						t.Fatalf("%s: empty transition set without error", op)
					}
					for b := range ts1 {
						if ts1[b].Resp != ts2[b].Resp || ts1[b].Next.Key() != ts2[b].Next.Key() {
							t.Fatalf("%s: branch %d differs on repeat", op, b)
						}
					}
					// Deterministic specs must not branch.
					if spec.Deterministic(entry.sp) && len(ts1) != 1 {
						t.Fatalf("%s: deterministic spec offered %d branches", op, len(ts1))
					}
					st = ts1[rng.Intn(len(ts1))].Next
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInitIsFresh checks Init returns independent states (no shared
// mutable backing arrays).
func TestInitIsFresh(t *testing.T) {
	t.Parallel()
	for _, entry := range zoo() {
		a, b := entry.sp.Init(), entry.sp.Init()
		if a.Key() != b.Key() {
			t.Errorf("%s: two Init states differ", entry.name)
		}
	}
}

// TestStepAppendMatchesStep checks the StepAppend contract (see the
// package comment) against Step over random walks of the whole zoo.
// Every call reuses one buffer, so the spare entries of dst hold the
// states earlier calls returned and a recycling spec overwrites them;
// half the calls also keep the previous call's first entry as a live
// prefix. StepAppend must return Step's branch count, responses and
// state keys after the prefix, leave the prefix and its input state
// unchanged, and never change a state an earlier Step returned. The
// walk alternates between Step's states and StepAppend's recycled ones,
// so an input is sometimes held by a spare entry of dst itself.
func TestStepAppendMatchesStep(t *testing.T) {
	t.Parallel()
	for _, entry := range zoo() {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			t.Parallel()
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				type kept struct {
					s   spec.State
					key string
				}
				var stepped []kept
				var buf []spec.Transition
				st := entry.sp.Init()
				for i := 0; i < 25; i++ {
					op := entry.gen(rng)
					before := string(st.AppendKey(nil))
					want, werr := entry.sp.Step(st, op)
					live := 0
					if len(buf) > 0 && rng.Intn(2) == 0 {
						live = 1
					}
					var liveKey string
					if live == 1 {
						liveKey = string(buf[0].Next.AppendKey(nil))
					}
					got, gerr := spec.StepAppend(entry.sp, buf[:live], st, op)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s: Step error %v, StepAppend error %v", op, werr, gerr)
					}
					if string(st.AppendKey(nil)) != before {
						t.Fatalf("%s: StepAppend mutated its input state", op)
					}
					if live == 1 && string(buf[0].Next.AppendKey(nil)) != liveKey {
						t.Fatalf("%s: StepAppend changed the live entry of dst", op)
					}
					for _, k := range stepped {
						if string(k.s.AppendKey(nil)) != k.key {
							t.Fatalf("%s: StepAppend changed a state an earlier Step returned", op)
						}
					}
					if werr != nil {
						continue
					}
					if len(got)-live != len(want) {
						t.Fatalf("%s: StepAppend offered %d branches, Step %d", op, len(got)-live, len(want))
					}
					for b, w := range want {
						g := got[live+b]
						if g.Resp != w.Resp || !bytes.Equal(g.Next.AppendKey(nil), w.Next.AppendKey(nil)) {
							t.Fatalf("%s: branch %d: StepAppend gave (%s, %s), Step (%s, %s)",
								op, b, g.Next.Key(), g.Resp, w.Next.Key(), w.Resp)
						}
					}
					buf = got
					for _, w := range want {
						stepped = append(stepped, kept{w.Next, string(w.Next.AppendKey(nil))})
					}
					b := rng.Intn(len(want))
					if rng.Intn(2) == 0 {
						st = want[b].Next
					} else {
						st = got[live+b].Next
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
