package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"setagree/internal/enumerate"
	"setagree/internal/objects"
	"setagree/internal/obs"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// theorem42Family is Theorem 4.2's falsification family over
// {2-consensus, register, 2-SA}, built as cmd/experiments builds it.
func theorem42Family(depth int) *enumerate.Family {
	return &enumerate.Family{
		Objects: []spec.Spec{objects.NewConsensus(2), objects.NewRegister(), objects.NewTwoSA()},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
			{Obj: 2, Method: value.MethodPropose, Arg: enumerate.ArgInput},
		},
		Depth: depth,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput, enumerate.ActDecideLast, enumerate.ActDecideFirst,
			enumerate.ActDecideZero, enumerate.ActDecideOne, enumerate.ActRetry,
		},
	}
}

// binaryVectors returns all 2^n binary input vectors in mask order.
func binaryVectors(n int) [][]value.Value {
	var out [][]value.Value
	for mask := 0; mask < 1<<n; mask++ {
		in := make([]value.Value, n)
		for i := range in {
			if mask&(1<<i) != 0 {
				in[i] = 1
			}
		}
		out = append(out, in)
	}
	return out
}

// sweepCheck is one timed sweep: PrepareDAC then CheckRange over every
// candidate.
type sweepCheck struct {
	prepare, check time.Duration
	cpu            time.Duration
	mem            memDelta
	candidates     int
	pruned         int
	rr             *enumerate.RangeReport
	sink           *obs.Sink
	events         *bytes.Buffer
}

// sweepOnce runs the depth-d Theorem 4.2 sweep for 3-DAC over vectors
// with memoization on, nproc workers, everything in memory, and checks
// the verdict against ref. A non-nil root collects the obs sink, the
// event stream and spans.
func sweepOnce(root *span, depth int, vectors [][]value.Value, ref sweepRef) (*sweepCheck, error) {
	opts := enumerate.SweepOptions{Workers: runtime.NumCPU()}
	out := &sweepCheck{}
	if root != nil {
		out.sink, out.events = obs.NewSink(), new(bytes.Buffer)
		opts.Obs, opts.Events = out.sink, obs.NewEmitter(out.events)
	}
	runtime.GC()
	mem0 := readMem()
	cpu0 := cpuSelf()
	sp := root.child("enumerate.PrepareDAC")
	start := time.Now()
	p, err := enumerate.PrepareDAC(theorem42Family(depth), 3, opts)
	out.prepare = time.Since(start)
	sp.end(nil)
	if err != nil {
		return nil, fmt.Errorf("enumerate.PrepareDAC: %w", err)
	}
	out.candidates, out.pruned = p.Candidates(), p.Pruned()
	sp = root.child("Prepared.CheckRange")
	start = time.Now()
	rr, err := p.CheckRange(0, p.Candidates(), vectors, opts)
	out.check = time.Since(start)
	out.cpu = cpuSelf() - cpu0
	out.mem = memSince(mem0)
	if err != nil {
		sp.end(nil)
		return nil, fmt.Errorf("Prepared.CheckRange: %w", err)
	}
	sp.end(map[string]float64{
		"candidates": float64(out.candidates), "states": float64(rr.States),
		"mallocs": float64(out.mem.mallocs), "alloc_bytes": float64(out.mem.bytes),
	})
	out.rr = rr
	if got := (sweepRef{Candidates: out.candidates, Pruned: out.pruned,
		Solvers: len(rr.Solvers), Inconclusive: len(rr.Inconclusive)}); got != ref {
		return out, fmt.Errorf("sweep verdict %+v, reference %+v", got, ref)
	}
	return out, nil
}

// candidateTimes returns the elapsed times, in ms, of the concretely
// checked candidates in a sweep's event stream (memo hits excluded, as
// in the sweep.candidate timer).
func candidateTimes(events []byte) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(bytes.NewReader(events))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	for sc.Scan() {
		var ev struct {
			Event     string `json:"event"`
			Memo      bool   `json:"memo"`
			ElapsedNs int64  `json:"elapsed_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		if ev.Event == "sweep.candidate" && !ev.Memo {
			out = append(out, float64(ev.ElapsedNs)/1e6)
		}
	}
	return out, sc.Err()
}

// sweepCycle is the nominal time of one cycle of eight depth-2 sweeps
// on two cores.
const sweepCycle = 16 * time.Second

// vectorOrders derives the workload's input-vector orders from the
// seed: the seed shuffles the 2^3 binary vectors, and the orders are
// that shuffle's 8 rotations. Iteration i sweeps with order i mod 8, so
// over a cycle every vector leads once: a sweep's work depends on
// which vectors refute candidates first, and the rotations keep that
// mix the same for every seed.
func vectorOrders(seed int64) [][][]value.Value {
	base := binaryVectors(3)
	rand.New(rand.NewSource(seed)).Shuffle(len(base), func(i, j int) {
		base[i], base[j] = base[j], base[i]
	})
	orders := make([][][]value.Value, len(base))
	for r := range orders {
		orders[r] = append(append([][]value.Value(nil), base[r:]...), base[:r]...)
	}
	return orders
}

func runSweep(ctx context.Context, cfg config, res *result) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	d2 := ref.Sweeps["thm42-d2"]
	orders, setupS, err := measureSetup(func() ([][][]value.Value, func(), error) {
		// Set-up derives the input-vector orders from the seed and warms
		// the engine with the depth-1 sweep of the same family.
		orders := vectorOrders(cfg.seed)
		if _, err := sweepOnce(nil, 1, orders[0], ref.Sweeps["thm42-d1"]); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		return orders, func() {}, nil
	})
	if err != nil {
		return err
	}

	pinned := map[int][3]int{}
	// one runs the sweep over the i-th vector order and records its
	// verdict and pinned counts.
	one := func(root *span, i int) (*sweepCheck, bool, error) {
		res.Attempted++
		order := i % len(orders)
		c, err := sweepOnce(root, 2, orders[order], d2)
		if c == nil {
			return nil, false, err
		}
		if err != nil {
			res.fail("%v", err)
			return c, false, nil
		}
		counts := [3]int{c.candidates, c.pruned, c.rr.States}
		if first, ok := pinned[order]; !ok {
			pinned[order] = counts
		} else if counts != first {
			res.fail("determinism: candidates/pruned/states %v differ from the first sweep of vector order %d %v", counts, order, first)
		}
		return c, true, nil
	}

	if !cfg.trace {
		var it iterations
		err := loopCycles(ctx, cfg.seconds, sweepCycle, len(orders), func(i int) error {
			c, ok, err := one(nil, i)
			if err != nil || !ok {
				return err
			}
			it.add(c.prepare+c.check, c.cpu, c.mem.bytes)
			return nil
		})
		if err != nil {
			return err
		}
		return it.endToEnd(res, setupS)
	}

	tr := newTracer()
	m := map[string][]float64{}
	add := func(name string, v float64) { m[name] = append(m[name], v) }
	err = loop(ctx, cfg.seconds, 1, func(round int) error {
		base, ok, err := one(nil, round)
		if err != nil || !ok {
			return err
		}
		root := tr.root("iteration", round)
		c, ok, err := one(root, round)
		root.end(nil)
		if err != nil || !ok {
			return err
		}
		snap := c.sink.Snapshot()
		hits := float64(snap.Counters["sweep.memo_hits"])
		runs := float64(snap.Counters["explore.runs"])
		times, err := candidateTimes(c.events.Bytes())
		if err != nil {
			return fmt.Errorf("sweep events: %w", err)
		}
		tailMs, _ := tail(times)
		add("enumerate.prepare_ms", float64(c.prepare)/1e6)
		add("enumerate.check_s", c.check.Seconds())
		add("enumerate.candidates", float64(c.candidates))
		add("enumerate.pruned", float64(c.pruned))
		add("enumerate.states", float64(c.rr.States))
		add("enumerate.memo_hits", hits)
		add("enumerate.fork_states_saved", float64(snap.Counters["sweep.fork_states_saved"]))
		add("enumerate.memo_hit_ratio", ratio(hits, hits+runs))
		add("enumerate.concrete_ratio", ratio(runs, hits+runs))
		add("enumerate.candidate_p50_ms", median(times))
		add("enumerate.candidate_tail_ms", tailMs)
		add("enumerate.allocs_per_candidate", float64(c.mem.mallocs)/float64(c.candidates))
		add("explore.runs", runs)
		add("explore.states", float64(snap.Counters["explore.states"]))
		add("explore.transitions", float64(snap.Counters["explore.transitions"]))
		add("explore.gc_cycles", float64(c.mem.gcs))
		add("explore.gc_pause_ms", float64(c.mem.pause)/1e6)
		baseS, tracedS := (base.prepare + base.check).Seconds(), (c.prepare + c.check).Seconds()
		add("obs.trace_overhead_pct", 100*(tracedS-baseS)/baseS)
		return nil
	})
	if err != nil {
		return err
	}
	return perLayerResult(res, tr, cfg, m)
}
