package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"setagree/internal/enumerate"
	"setagree/internal/jobs"
	"setagree/internal/obs"
)

// TestSpecRoundTrip pins that a SweepSpec survives JSON and rebuilds
// the same candidate space.
func TestSpecRoundTrip(t *testing.T) {
	t.Parallel()
	sp := Thm71()
	buf, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepSpec
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	p1, err := sp.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := back.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Candidates() != 1116 || p2.Candidates() != 1116 {
		t.Fatalf("candidates = %d / %d, want 1116", p1.Candidates(), p2.Candidates())
	}
	if p1.Pruned() != p2.Pruned() {
		t.Fatalf("pruned = %d / %d", p1.Pruned(), p2.Pruned())
	}
	for _, i := range []int{0, 557, 1115} {
		a, b := p1.Assignment(i), p2.Assignment(i)
		for r := range a.Shapes {
			if a.Shapes[r].String() != b.Shapes[r].String() {
				t.Fatalf("candidate %d shape %d differs after round-trip", i, r)
			}
		}
	}
}

// TestSpecValidation pins the error surface of bad specs.
func TestSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []SweepSpec{
		{},
		{Task: TaskSpec{Kind: "dac", N: 3}, Depth: 1},
		{Task: TaskSpec{Kind: "frobnicate", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "read"}}, Depth: 1, Actions: []string{"retry"}},
		{Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 5, Method: "read"}}, Depth: 1, Actions: []string{"retry"}},
		{Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "write", Arg: "banana"}}, Depth: 1, Actions: []string{"retry"}},
		{Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "read"}}, Depth: 1, Actions: []string{"explode"}},
	}
	for i, sp := range cases {
		if _, err := sp.Prepare(); err == nil {
			t.Errorf("case %d: bad spec prepared without error", i)
		}
	}
}

// TestMergeValidation pins the tiling rules: duplicates collapse,
// gaps, overlaps, and pruned disagreement are errors.
func TestMergeValidation(t *testing.T) {
	t.Parallel()
	sh := func(lo, hi int) *ShardReport { return &ShardReport{Lo: lo, Hi: hi, Pruned: 7, States: hi - lo} }

	rep, err := Merge(10, []*ShardReport{sh(5, 10), sh(0, 5), sh(5, 10)})
	if err != nil {
		t.Fatalf("duplicate shard should collapse, got %v", err)
	}
	if rep.States != 10 {
		t.Errorf("duplicate counted twice: states = %d, want 10", rep.States)
	}
	if _, err := Merge(10, []*ShardReport{sh(0, 5)}); err == nil {
		t.Error("missing tail accepted")
	}
	if _, err := Merge(10, []*ShardReport{sh(0, 5), sh(7, 10)}); err == nil {
		t.Error("gap accepted")
	}
	if _, err := Merge(10, []*ShardReport{sh(0, 6), sh(5, 10)}); err == nil {
		t.Error("overlap accepted")
	}
	bad := sh(5, 10)
	bad.Pruned = 3
	if _, err := Merge(10, []*ShardReport{sh(0, 5), bad}); err == nil {
		t.Error("pruned disagreement accepted")
	}

	// Shard results are bytes from other daemons: nothing that does not
	// tile the sweep, or lists a candidate outside its shard or out of
	// order, may merge into a verdict.
	solvers := func(idx ...int) []ShardSolver {
		out := make([]ShardSolver, len(idx))
		for i, x := range idx {
			out[i] = ShardSolver{Index: x}
		}
		return out
	}
	with := func(lo, hi int, edit func(*ShardReport)) *ShardReport {
		r := sh(lo, hi)
		edit(r)
		return r
	}
	for _, tc := range []struct {
		name       string
		candidates int
		shards     []*ShardReport
	}{
		{"backwards shard hides an out-of-sweep solver", 5, []*ShardReport{
			with(0, 8, func(r *ShardReport) { r.Solvers = solvers(7) }), sh(8, 5)}},
		{"shard past the sweep", 5, []*ShardReport{sh(0, 8)}},
		{"solver listed by two shards", 10, []*ShardReport{
			with(0, 5, func(r *ShardReport) { r.Solvers = solvers(7) }),
			with(5, 10, func(r *ShardReport) { r.Solvers = solvers(7) })}},
		{"solver below its shard", 10, []*ShardReport{sh(0, 5),
			with(5, 10, func(r *ShardReport) { r.Solvers = solvers(4) })}},
		{"inconclusive outside its shard", 10, []*ShardReport{sh(5, 10),
			with(0, 5, func(r *ShardReport) { r.Inconclusive = []ShardInconclusive{{Index: 5}} })}},
		{"failure outside its shard", 10, []*ShardReport{sh(5, 10),
			with(0, 5, func(r *ShardReport) { r.Failure = &ShardFailure{Index: 9} })}},
		{"repeated solver", 10, []*ShardReport{sh(5, 10),
			with(0, 5, func(r *ShardReport) { r.Solvers = solvers(2, 2) })}},
		{"decreasing solvers", 10, []*ShardReport{sh(5, 10),
			with(0, 5, func(r *ShardReport) { r.Solvers = solvers(3, 1) })}},
		{"decreasing inconclusive", 10, []*ShardReport{sh(0, 5),
			with(5, 10, func(r *ShardReport) { r.Inconclusive = []ShardInconclusive{{Index: 8}, {Index: 6}} })}},
		{"missing shard", 10, []*ShardReport{sh(0, 5), nil}},
	} {
		if rep, err := Merge(tc.candidates, tc.shards); err == nil {
			t.Errorf("%s: accepted, merged solvers %v", tc.name, rep.Solvers)
		}
	}
	ok := with(0, 5, func(r *ShardReport) {
		r.Solvers = solvers(1, 3)
		r.Inconclusive = []ShardInconclusive{{Index: 2}}
		r.Failure = &ShardFailure{Index: 4}
	})
	if _, err := Merge(10, []*ShardReport{ok, sh(5, 10)}); err != nil {
		t.Errorf("well-formed shards rejected: %v", err)
	}
}

// smallSpec is a fast sweep (depth-1 register family against
// 2-consensus) for coordinator tests: 8 candidates, refuted.
func smallSpec() SweepSpec {
	return SweepSpec{
		Task:    TaskSpec{Kind: "consensus", N: 2},
		Objects: []ObjectSpec{{Kind: "register"}},
		Menu: []InvokeSpec{
			{Obj: 0, Method: "write", Arg: "input"},
			{Obj: 0, Method: "read"},
		},
		Depth:   1,
		Actions: []string{"decide-input", "decide-last", "decide-0", "retry"},
	}
}

// TestRunLocalMatchesFalsify pins that the cluster pipeline's local
// mode reproduces the enumerate sweep it wraps, at any shard count.
func TestRunLocalMatchesFalsify(t *testing.T) {
	t.Parallel()
	sp := Thm71()
	fam, err := sp.Family()
	if err != nil {
		t.Fatal(err)
	}
	vectors, err := sp.Vectors()
	if err != nil {
		t.Fatal(err)
	}
	full, err := enumerate.FalsifyDAC(fam, 3, vectors, enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	one, err := Run(context.Background(), sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(context.Background(), sp, Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}

	if one.Candidates != full.Candidates || one.States != full.States ||
		len(one.Solvers) != len(full.Solvers) || len(one.Inconclusive) != len(full.Inconclusive) {
		t.Errorf("local run diverges from FalsifyDAC: %+v vs Report{cand %d states %d solvers %d inc %d}",
			one, full.Candidates, full.States, len(full.Solvers), len(full.Inconclusive))
	}
	if (one.Failure != nil) != (full.SampleFailure != nil) {
		t.Errorf("refutation disagreement: cluster %v, falsify %v", one.Failure, full.SampleFailure)
	}

	b1, err := one.Render()
	if err != nil {
		t.Fatal(err)
	}
	b7, err := many.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b7) {
		t.Errorf("shard count leaks into the rendered report:\n%s\nvs\n%s", b1, b7)
	}
}

// fakeWorker is an in-process stand-in for a worker dacd: the four
// job endpoints the coordinator uses, running sweep-shard jobs on a
// goroutine like the real pool does.
type fakeWorker struct {
	mu      sync.Mutex
	n       int
	jobs    map[string]*jobs.Job
	done    map[string]chan struct{} // closed when the job's run ends
	results map[string][]byte
}

func newFakeWorker() *fakeWorker {
	return &fakeWorker{jobs: map[string]*jobs.Job{}, done: map[string]chan struct{}{}, results: map[string][]byte{}}
}

func (f *fakeWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Kind string          `json:"kind"`
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil ||
			(req.Kind != "sweep-shard" && req.Kind != "collections-shard") {
			http.Error(w, "bad submit", http.StatusBadRequest)
			return
		}
		run := func() (any, error) {
			if req.Kind == "collections-shard" {
				var cj CollectionsShardJob
				if err := json.Unmarshal(req.Spec, &cj); err != nil {
					return nil, err
				}
				return RunCollectionsShard(context.Background(), cj, nil, nil)
			}
			var sj ShardJob
			if err := json.Unmarshal(req.Spec, &sj); err != nil {
				return nil, err
			}
			return RunShard(context.Background(), sj, nil, nil)
		}
		f.mu.Lock()
		f.n++
		id := fmt.Sprintf("job-%06d", f.n)
		job := &jobs.Job{ID: id, Kind: req.Kind, State: jobs.Running}
		f.jobs[id] = job
		done := make(chan struct{})
		f.done[id] = done
		// Snapshot before the run goroutine can mutate job.State: the
		// response encodes the accepted state, not a racing live record.
		snap := *job
		f.mu.Unlock()
		go func() {
			rep, err := run()
			f.mu.Lock()
			defer f.mu.Unlock()
			defer close(done)
			if err != nil {
				job.State = jobs.Failed
				job.Error = err.Error()
				return
			}
			buf, _ := json.Marshal(rep)
			f.results[id] = buf
			job.State = jobs.Done
		}()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		job, ok := f.jobs[r.PathValue("id")]
		var cp jobs.Job
		if ok {
			cp = *job
		}
		f.mu.Unlock()
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(cp)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		done, ok := f.done[r.PathValue("id")]
		f.mu.Unlock()
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		select {
		case <-done:
		case <-r.Context().Done():
			return
		}
		f.mu.Lock()
		state := f.jobs[r.PathValue("id")].State
		f.mu.Unlock()
		fmt.Fprintf(w, "data: {\"event\":\"sweep.done\"}\n\nevent: done\ndata: {\"state\":%q}\n\n", state)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		buf, ok := f.results[r.PathValue("id")]
		f.mu.Unlock()
		if !ok {
			http.Error(w, "no result", http.StatusNotFound)
			return
		}
		w.Write(buf)
	})
	return mux
}

// TestRunClusterMatchesLocal pins the tentpole promise end to end at
// the package level: dispatching shards to workers — one of them dead,
// one of them throttling with 429 backpressure — renders byte-identical
// output to the in-process run, with the retries visible in metrics.
func TestRunClusterMatchesLocal(t *testing.T) {
	t.Parallel()
	sp := smallSpec()
	local, err := Run(context.Background(), sp, Options{})
	if err != nil {
		t.Fatal(err)
	}

	w1 := httptest.NewServer(newFakeWorker().handler())
	defer w1.Close()
	// Worker 2 sends one 429 with Retry-After before accepting anything.
	throttled := false
	fw2 := newFakeWorker()
	w2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && !throttled {
			throttled = true
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fw2.handler().ServeHTTP(w, r)
	}))
	defer w2.Close()
	// Worker 3 is dead: a closed listener, connection refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	sink := obs.NewSink()
	rep, err := Run(context.Background(), sp, Options{
		Workers:     []string{w1.URL, w2.URL, deadURL},
		Shards:      4,
		MaxAttempts: 20,
		Obs:         sink,
	})
	if err != nil {
		t.Fatal(err)
	}

	lb, err := local.Render()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := rep.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, cb) {
		t.Errorf("cluster report differs from local run:\n%s\nvs\n%s", cb, lb)
	}
	if got := sink.Counter("cluster.shards").Load(); got != 4 {
		t.Errorf("cluster.shards = %d, want 4", got)
	}
	if sink.Counter("cluster.shards_retried").Load() == 0 {
		t.Error("dead worker produced no retries")
	}
}

// TestRunClusterGivesUp pins MaxAttempts: a cluster of only dead
// workers fails with the shard error instead of hanging.
func TestRunClusterGivesUp(t *testing.T) {
	t.Parallel()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := Run(ctx, smallSpec(), Options{
		Workers:     []string{deadURL},
		Shards:      2,
		MaxAttempts: 3,
		Obs:         obs.NewSink(),
	})
	if err == nil {
		t.Fatal("cluster of dead workers reported success")
	}
}
