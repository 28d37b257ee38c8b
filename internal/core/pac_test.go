package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"setagree/internal/core"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// applyOne applies op to a deterministic spec state and returns the
// single transition.
func applyOne(t *testing.T, sp spec.Spec, st spec.State, op value.Op) (spec.State, value.Value) {
	t.Helper()
	ts, err := sp.Step(st, op)
	if err != nil {
		t.Fatalf("Step(%s): %v", op, err)
	}
	if len(ts) != 1 {
		t.Fatalf("Step(%s): %d transitions from a deterministic spec", op, len(ts))
	}
	return ts[0].Next, ts[0].Resp
}

func TestPACName(t *testing.T) {
	t.Parallel()
	if got := core.NewPAC(3).Name(); got != "3-PAC" {
		t.Errorf("Name() = %q", got)
	}
}

func TestPACDeterministic(t *testing.T) {
	t.Parallel()
	if !spec.Deterministic(core.NewPAC(2)) {
		t.Error("n-PAC must be deterministic (§3)")
	}
}

// TestPACProposeReturnsDone checks that PROPOSE always returns done,
// even on an upset object (§3: "still returns done to all propose
// operations").
func TestPACProposeReturnsDone(t *testing.T) {
	t.Parallel()
	p := core.NewPAC(2)
	st := p.Init()
	var resp value.Value
	st, resp = applyOne(t, p, st, value.ProposeAt(7, 1))
	if resp != value.Done {
		t.Fatalf("first propose returned %s", resp)
	}
	// Second propose with the same label upsets the object...
	st, resp = applyOne(t, p, st, value.ProposeAt(7, 1))
	if resp != value.Done {
		t.Fatalf("upsetting propose returned %s", resp)
	}
	if !core.IsUpset(st) {
		t.Fatal("double propose with one label must upset (Lemma 3.2)")
	}
	// ...and proposes keep returning done.
	_, resp = applyOne(t, p, st, value.ProposeAt(9, 2))
	if resp != value.Done {
		t.Fatalf("propose on upset object returned %s", resp)
	}
}

// TestPACSoloProposeDecide checks the intended matching-pair protocol:
// a propose immediately followed by its decide returns the proposal.
func TestPACSoloProposeDecide(t *testing.T) {
	t.Parallel()
	p := core.NewPAC(3)
	st := p.Init()
	st, _ = applyOne(t, p, st, value.ProposeAt(42, 2))
	st, resp := applyOne(t, p, st, value.Decide(2))
	if resp != 42 {
		t.Fatalf("decide returned %s, want 42", resp)
	}
	if core.IsUpset(st) {
		t.Fatal("legal history must not upset")
	}
}

// TestPACConsensusValueSticks checks that the first successful decide
// fixes val: later matched pairs decide the same value.
func TestPACConsensusValueSticks(t *testing.T) {
	t.Parallel()
	p := core.NewPAC(3)
	st := p.Init()
	st, _ = applyOne(t, p, st, value.ProposeAt(1, 1))
	st, first := applyOne(t, p, st, value.Decide(1))
	if first != 1 {
		t.Fatalf("first decide: %s", first)
	}
	st, _ = applyOne(t, p, st, value.ProposeAt(9, 2))
	st, second := applyOne(t, p, st, value.Decide(2))
	if second != 1 {
		t.Fatalf("second decide returned %s; agreement requires 1", second)
	}
	_ = st
}

// TestPACInterveningOperationYieldsBottom checks the concurrency
// detection: an operation between a propose and its matching decide
// forces the decide to return ⊥ without upsetting the object.
func TestPACInterveningOperationYieldsBottom(t *testing.T) {
	t.Parallel()
	p := core.NewPAC(3)
	st := p.Init()
	st, _ = applyOne(t, p, st, value.ProposeAt(5, 1))
	st, _ = applyOne(t, p, st, value.ProposeAt(6, 2)) // intervenes: L becomes 2
	st, resp := applyOne(t, p, st, value.Decide(1))
	if resp != value.Bottom {
		t.Fatalf("decide(1) after intervening propose returned %s, want ⊥", resp)
	}
	if core.IsUpset(st) {
		t.Fatal("legal history must not upset (alternation preserved)")
	}
	// Per Algorithm 1 lines 15-16, the failed decide cleared V[1] and L.
	st, resp = applyOne(t, p, st, value.Decide(2))
	if resp != value.Bottom {
		t.Fatalf("decide(2) returned %s, want ⊥ (L was cleared)", resp)
	}
	if core.IsUpset(st) {
		t.Fatal("still a legal history")
	}
}

// TestPACDecideWithoutProposeUpsets checks Lemma 3.2's other direction:
// a decide without a matching propose permanently upsets the object.
func TestPACDecideWithoutProposeUpsets(t *testing.T) {
	t.Parallel()
	p := core.NewPAC(2)
	st := p.Init()
	st, resp := applyOne(t, p, st, value.Decide(1))
	if resp != value.Bottom {
		t.Fatalf("orphan decide returned %s", resp)
	}
	if !core.IsUpset(st) {
		t.Fatal("orphan decide must upset")
	}
	// Upset is permanent (Observation 3.1): even matched pairs now get ⊥.
	st, _ = applyOne(t, p, st, value.ProposeAt(3, 2))
	st, resp = applyOne(t, p, st, value.Decide(2))
	if resp != value.Bottom {
		t.Fatalf("decide on upset object returned %s", resp)
	}
	if !core.IsUpset(st) {
		t.Fatal("upset must persist")
	}
}

func TestPACBadOps(t *testing.T) {
	t.Parallel()
	p := core.NewPAC(2)
	st := p.Init()
	cases := []value.Op{
		value.ProposeAt(1, 0),
		value.ProposeAt(1, 3),
		value.Decide(0),
		value.Decide(3),
		value.ProposeAt(value.Bottom, 1),
		value.ProposeAt(value.None, 1),
		value.Propose(1),
		value.Read(),
	}
	for _, op := range cases {
		if _, err := p.Step(st, op); err == nil {
			t.Errorf("Step(%s) accepted an out-of-interface operation", op)
		}
	}
}

// opAt describes one abstract PAC operation for the history-based
// property tests.
type opAt struct {
	propose bool
	label   int
	val     value.Value
}

func (o opAt) op() value.Op {
	if o.propose {
		return value.ProposeAt(o.val, o.label)
	}
	return value.Decide(o.label)
}

// legal implements the §3 definition directly: a history is legal iff
// for every label i, the subsequence of operations with label i is
// empty or begins with a propose and alternates propose/decide.
func legal(hist []opAt, n int) bool {
	expectPropose := make([]bool, n+1)
	for i := range expectPropose {
		expectPropose[i] = true
	}
	for _, o := range hist {
		if o.propose != expectPropose[o.label] {
			return false
		}
		expectPropose[o.label] = !expectPropose[o.label]
	}
	return true
}

// runHistory applies a history to a fresh n-PAC object and returns the
// final state plus each operation's response.
func runHistory(t *testing.T, n int, hist []opAt) (spec.State, []value.Value) {
	t.Helper()
	p := core.NewPAC(n)
	st := p.Init()
	resps := make([]value.Value, len(hist))
	for i, o := range hist {
		var resp value.Value
		st, resp = applyOne(t, p, st, o.op())
		resps[i] = resp
	}
	return st, resps
}

// enumerateHistories yields every history of the given length over
// labels 1..n with proposals drawn from vals.
func enumerateHistories(n, length int, vals []value.Value, visit func([]opAt)) {
	var menu []opAt
	for i := 1; i <= n; i++ {
		for _, v := range vals {
			menu = append(menu, opAt{propose: true, label: i, val: v})
		}
		menu = append(menu, opAt{label: i})
	}
	hist := make([]opAt, length)
	var rec func(d int)
	rec = func(d int) {
		if d == length {
			visit(hist)
			return
		}
		for _, o := range menu {
			hist[d] = o
			rec(d + 1)
		}
	}
	rec(0)
}

// TestPACLemma32Exhaustive checks Lemma 3.2 — the object is upset at t
// iff the history up to t is not legal — on every history of length up
// to 5 over 2 labels and 2 values.
func TestPACLemma32Exhaustive(t *testing.T) {
	t.Parallel()
	const n = 2
	vals := []value.Value{5, 7}
	for length := 0; length <= 5; length++ {
		enumerateHistories(n, length, vals, func(hist []opAt) {
			st, _ := runHistory(t, n, hist)
			if got, want := core.IsUpset(st), !legal(hist, n); got != want {
				t.Fatalf("history %v: upset=%v, legal=%v (Lemma 3.2 violated)", hist, got, !want)
			}
		})
	}
}

// TestPACTheorem35Exhaustive checks Theorem 3.5 (Agreement, Validity,
// Nontriviality) on every history of length up to 5 over 2 labels.
func TestPACTheorem35Exhaustive(t *testing.T) {
	t.Parallel()
	const n = 2
	vals := []value.Value{5, 7}
	for length := 1; length <= 5; length++ {
		enumerateHistories(n, length, vals, func(hist []opAt) {
			checkTheorem35(t, n, hist)
		})
	}
}

// TestPACTheorem35Random checks Theorem 3.5 on long random histories
// over more labels (testing/quick drives the generator).
func TestPACTheorem35Random(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 4
		length := 1 + rng.Intn(40)
		hist := make([]opAt, length)
		for i := range hist {
			hist[i] = opAt{
				propose: rng.Intn(2) == 0,
				label:   1 + rng.Intn(n),
				val:     value.Value(rng.Intn(5)),
			}
		}
		checkTheorem35(t, n, hist)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkTheorem35 asserts the three properties of Theorem 3.5 over one
// sequential history.
func checkTheorem35(t *testing.T, n int, hist []opAt) {
	t.Helper()
	_, resps := runHistory(t, n, hist)

	// (a) Agreement: all non-⊥ decide responses are equal.
	decided := value.None
	for i, o := range hist {
		if o.propose || resps[i] == value.Bottom {
			continue
		}
		if decided == value.None {
			decided = resps[i]
		} else if resps[i] != decided {
			t.Fatalf("history %v: decides returned %s and %s (Agreement)", hist, decided, resps[i])
		}
	}

	// (b) Validity: a non-⊥ decide response v comes from a propose that
	// proposes v and decides v — in particular some propose proposed v.
	for i, o := range hist {
		if o.propose || resps[i] == value.Bottom {
			continue
		}
		proposed := false
		for j := 0; j < i; j++ {
			if hist[j].propose && hist[j].val == resps[i] {
				proposed = true
				break
			}
		}
		if !proposed {
			t.Fatalf("history %v: decide %d returned unproposed %s (Validity)", hist, i, resps[i])
		}
	}

	// (c) Nontriviality: decide op returns ⊥ iff the object was upset
	// before it, or there is no operation before it, or the operation
	// immediately before it is not a propose with the same label.
	for i, o := range hist {
		if o.propose {
			continue
		}
		upsetBefore := !legal(hist[:i], n)
		matchedPrev := i > 0 && hist[i-1].propose && hist[i-1].label == o.label
		wantBottom := upsetBefore || !matchedPrev
		gotBottom := resps[i] == value.Bottom
		if gotBottom != wantBottom {
			t.Fatalf("history %v: decide %d returned %s; upsetBefore=%v matchedPrev=%v (Nontriviality)",
				hist, i, resps[i], upsetBefore, matchedPrev)
		}
	}
}

// TestPACLemma33and34Random checks the state-shape lemmas: when not
// upset, V[i] mirrors the last operation with label i and L mirrors the
// last operation overall.
func TestPACLemma33and34Random(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 3
		p := core.NewPAC(n)
		st := p.Init()
		lastWithLabel := make([]opAt, n+1) // zero value: no operation yet
		var last opAt
		length := 1 + rng.Intn(30)
		for stepIdx := 0; stepIdx < length; stepIdx++ {
			o := opAt{
				propose: rng.Intn(2) == 0,
				label:   1 + rng.Intn(n),
				val:     value.Value(1 + rng.Intn(4)),
			}
			ts, err := p.Step(st, o.op())
			if err != nil {
				t.Fatal(err)
			}
			st = ts[0].Next
			lastWithLabel[o.label] = o
			last = o
			if core.IsUpset(st) {
				return true // lemmas only constrain non-upset states
			}
			ps, ok := st.(*core.PACState)
			if !ok {
				t.Fatal("state type")
			}
			for i := 1; i <= n; i++ {
				lo := lastWithLabel[i]
				wantV := value.None
				if lo.propose {
					wantV = lo.val
				}
				if ps.V[i-1] != wantV {
					t.Fatalf("V[%d] = %s, want %s (Lemma 3.3)", i, ps.V[i-1], wantV)
				}
			}
			wantL := 0
			if last.propose {
				wantL = last.label
			}
			if ps.L != wantL {
				t.Fatalf("L = %d, want %d (Lemma 3.4)", ps.L, wantL)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPACStateKeyDistinguishes checks that Key is injective across a
// sweep of distinct states (the model checker hashes with it).
func TestPACStateKeyDistinguishes(t *testing.T) {
	t.Parallel()
	p := core.NewPAC(2)
	seen := make(map[string][]opAt)
	vals := []value.Value{5, 7}
	for length := 0; length <= 4; length++ {
		enumerateHistories(2, length, vals, func(hist []opAt) {
			st, _ := runHistory(t, 2, hist)
			key := st.Key()
			seen[key] = append([]opAt(nil), hist...)
		})
	}
	// Keys must round-trip to equal states: replay a representative of
	// each key and compare field-wise.
	for key, hist := range seen {
		st, _ := runHistory(t, 2, hist)
		if st.Key() != key {
			t.Fatalf("key not stable for history %v", hist)
		}
	}
	_ = p
}

// TestPACLemma33Wording pins the exact wording of Lemma 3.3's NIL case:
// after a decide with label i, V[i] is NIL again.
func TestPACLemma33Wording(t *testing.T) {
	t.Parallel()
	p := core.NewPAC(2)
	st := p.Init()
	st, _ = applyOne(t, p, st, value.ProposeAt(5, 1))
	st, _ = applyOne(t, p, st, value.Decide(1))
	ps := st.(*core.PACState)
	if ps.V[0] != value.None {
		t.Fatalf("V[1] = %s after matched decide, want NIL", ps.V[0])
	}
	if ps.L != 0 {
		t.Fatalf("L = %d after decide, want NIL", ps.L)
	}
}

// TestPACSentinelProposalError pins the exact error of a sentinel
// proposal: the object's name is built only on this path, and the
// message must not change with that.
func TestPACSentinelProposalError(t *testing.T) {
	p := core.NewPAC(3)
	_, err := p.Step(p.Init(), value.ProposeAt(value.Bottom, 1))
	want := "3-PAC: PROPOSE_AT(⊥, 1): sentinel values cannot be proposed: operation not in object interface"
	if err == nil || err.Error() != want {
		t.Errorf("Step(PROPOSE_AT(⊥, 1)) error = %v, want %q", err, want)
	}
}
