package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/spec"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// exploreN is the instance size of the explore-n7-durable workload.
const exploreN = 7

// exploreCycle is the nominal time of one cycle of six n=7 checks on
// two cores.
const exploreCycle = 30 * time.Second

// exploreInput is one Algorithm 2 input: the proposals and the
// distinguished process p (1-based).
type exploreInput struct {
	in []value.Value
	p  int
}

// exploreInputs derives one input of each size class from the seed. A
// class is the number m of processes holding the minority value
// (1 <= m <= n/2) and whether the distinguished process is one of
// them; the seed picks the minority value, its holders and the
// distinguished process. Relabelling processes maps any instance of a
// class onto any other, so the class fixes the instance's size and
// every schedule-independent count; cycling through every class gives
// every seed the same work.
func exploreInputs(seed int64, n int) []exploreInput {
	rng := rand.New(rand.NewSource(seed))
	var out []exploreInput
	for m := 1; 2*m <= n; m++ {
		for _, pMinor := range []bool{true, false} {
			if 2*m == n && !pMinor {
				continue // balanced inputs: both sides are one class
			}
			perm := rng.Perm(n)
			minor := value.Value(rng.Intn(2))
			in := make([]value.Value, n)
			for i, proc := range perm {
				in[proc] = 1 - minor
				if i < m {
					in[proc] = minor
				}
			}
			p := perm[m+rng.Intn(n-m)]
			if pMinor {
				p = perm[rng.Intn(m)]
			}
			out = append(out, exploreInput{in: in, p: p + 1})
		}
	}
	return out
}

// exploreCase is one Algorithm 2 instance: its system, its task, and
// its class, the key of reference.json's explore_counts (the number of
// 1 inputs and the distinguished process's input).
type exploreCase struct {
	sys   *explore.System
	tsk   task.Task
	class string
}

func newExploreCase(x exploreInput) (exploreCase, error) {
	sys, err := programs.Algorithm2(len(x.in), x.p).System(x.in)
	if err != nil {
		return exploreCase{}, err
	}
	ones := 0
	for _, v := range x.in {
		ones += int(v)
	}
	return exploreCase{sys: sys, tsk: task.DAC{N: len(x.in), P: x.p - 1},
		class: fmt.Sprintf("ones=%d,p_input=%d", ones, x.in[x.p-1])}, nil
}

// exploreCheck is one timed exhaustive check and its measurements.
type exploreCheck struct {
	rep       *explore.Report
	verdict   time.Duration // Check, up to the checked verdict
	cpu       time.Duration
	mem       memDelta
	closeDur  time.Duration // Report.Close
	storeDisk int64         // store arena bytes on disk before Close
	ckptFile  int64         // final checkpoint file size
	steps     int64         // machine steps (traced runs only)
	sink      *obs.Sink     // traced runs only
}

// exploreRun holds the workload's instances and the scratch directory
// the durable checks spill into.
type exploreRun struct {
	cases []exploreCase
	want  string // the reference verdict
	dir   string
	seq   int
}

// newExploreRun builds the seed's instances for n processes and makes
// their scratch directory.
func newExploreRun(cfg config, n int, want string) (*exploreRun, error) {
	var cases []exploreCase
	for _, x := range exploreInputs(cfg.seed, n) {
		c, err := newExploreCase(x)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	dir, err := os.MkdirTemp(cfg.work, "explore-")
	if err != nil {
		return nil, err
	}
	return &exploreRun{cases: cases, want: want, dir: dir}, nil
}

// check runs one durable exhaustive check — valency on unless
// noValency, nproc workers, a fresh disk store, a checkpoint every 4
// levels — checks the verdict against the reference, and releases the
// store. With a non-nil root span it also collects the engine's obs
// sink, machine step counts, MemStats deltas and spans; the spans of an
// auxiliary check (root "iteration.<kind>") are named "<call>.<kind>".
func (r *exploreRun) check(root *span, c exploreCase, noValency bool) (*exploreCheck, error) {
	r.seq++
	storeDir := filepath.Join(r.dir, fmt.Sprintf("store-%d", r.seq))
	ckpt := filepath.Join(r.dir, fmt.Sprintf("run-%d.ckpt", r.seq))
	defer os.RemoveAll(storeDir)
	defer os.Remove(ckpt)
	opts := explore.Options{
		Valency:    !noValency,
		Workers:    runtime.NumCPU(),
		Store:      store.Options{Dir: storeDir},
		Checkpoint: explore.CheckpointOptions{Path: ckpt, EveryLevels: 4},
	}
	out := &exploreCheck{}
	if root != nil {
		out.sink = obs.NewSink()
		opts.Obs = out.sink
		// The store records its heap high-water mark only when it checks
		// a budget; one no run can reach makes it record without ever
		// forcing a collection.
		opts.Store.Budget = 1 << 40
		machine.EnableStepCount(true)
		defer machine.EnableStepCount(false)
	}
	// Each check starts from a collected heap, so one check's garbage
	// does not tax the next.
	runtime.GC()
	steps0 := machine.TotalSteps()
	mem0 := readMem()
	cpu0 := cpuSelf()
	sp := root.child("explore.Check" + root.suffix())
	start := time.Now()
	rep, err := explore.Check(c.sys, c.tsk, opts)
	verdict := "refuted"
	if err == nil && rep.Solved() {
		verdict = "solved"
	}
	out.verdict = time.Since(start)
	out.cpu = cpuSelf() - cpu0
	out.mem = memSince(mem0)
	out.steps = machine.TotalSteps() - steps0
	if rep != nil {
		sp.end(map[string]float64{
			"states": float64(rep.States), "transitions": float64(rep.Transitions),
			"mallocs": float64(out.mem.mallocs), "alloc_bytes": float64(out.mem.bytes),
			"gc_cycles": float64(out.mem.gcs), "machine_steps": float64(out.steps),
		})
	} else {
		sp.end(nil)
	}
	out.storeDisk = dirBytes(storeDir)
	if info, statErr := os.Stat(ckpt); statErr == nil {
		out.ckptFile = info.Size()
	}
	cs := root.child("Report.Close" + root.suffix())
	start = time.Now()
	closeErr := rep.Close()
	out.closeDur = time.Since(start)
	cs.end(nil)
	out.rep = rep
	switch {
	case err != nil:
		return out, fmt.Errorf("explore.Check: %w", err)
	case closeErr != nil:
		return out, fmt.Errorf("Report.Close: %w", closeErr)
	case verdict != r.want:
		return out, fmt.Errorf("verdict %s (%d violations), reference %s", verdict, len(rep.Violations), r.want)
	}
	return out, nil
}

func runExplore(ctx context.Context, cfg config, res *result) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	r, setupS, err := measureSetup(func() (*exploreRun, func(), error) {
		// Set-up builds the instances and warms the engine with one
		// durable n=4 check, so lazy initialisation is not timed.
		warm, err := newExploreRun(cfg, 4, ref.Explore)
		if err != nil {
			return nil, nil, err
		}
		_, err = warm.check(nil, warm.cases[0], false)
		os.RemoveAll(warm.dir)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		r, err := newExploreRun(cfg, exploreN, ref.Explore)
		if err != nil {
			return nil, nil, err
		}
		return r, func() { os.RemoveAll(r.dir) }, nil
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)

	// pin checks a report's schedule-independent counts against the
	// reference counts of its class: all of them for a Valency check,
	// the graph's for a Valency-off one.
	pin := func(what string, c exploreCase, rep *explore.Report) {
		want, ok := ref.ExploreCounts[c.class]
		got := countsOf(rep)
		if rep.Valency == nil {
			want = exploreCounts{States: want.States, Transitions: want.Transitions, Quiescent: want.Quiescent}
		}
		if !ok || got != want {
			res.fail("determinism: %s check of class %s: counts %+v, reference %+v", what, c.class, got, want)
		}
	}
	// untraced runs one check with tracing off and records it.
	untraced := func(c exploreCase) (*exploreCheck, error) {
		res.Attempted++
		out, err := r.check(nil, c, false)
		if err != nil {
			if out == nil || out.rep == nil {
				return nil, err
			}
			res.fail("%v", err)
			return out, nil
		}
		pin("untraced", c, out.rep)
		return out, nil
	}

	if !cfg.trace {
		var it iterations
		err := loopCycles(ctx, cfg.seconds, exploreCycle, len(r.cases), func(i int) error {
			out, err := untraced(r.cases[i%len(r.cases)])
			if err != nil {
				return err
			}
			it.add(out.verdict, out.cpu, out.mem.bytes)
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
		ec := r.cases[round%len(r.cases)]
		base, err := untraced(ec)
		if err != nil {
			return err
		}
		// The traced check: obs sink, machine step counting, spans.
		res.Attempted++
		root := tr.root("iteration", round)
		c, err := r.check(root, ec, false)
		root.end(nil)
		if err != nil {
			res.fail("traced: %v", err)
			return nil
		}
		pin("traced", ec, c.rep)
		// The same traced check with valency analysis off.
		res.Attempted++
		vroot := tr.root("iteration.valency_off", round)
		noVal, err := r.check(vroot, ec, true)
		vroot.end(nil)
		if err != nil {
			res.fail("valency-off: %v", err)
			return nil
		}
		pin("valency-off", ec, noVal.rep)
		// The traced check over Spec decorators that time every Step.
		res.Attempted++
		dec := ec
		var calls, stepNs *atomic.Int64
		dec.sys, calls, stepNs = decorate(ec.sys)
		droot := tr.root("iteration.objects", round)
		d, err := r.check(droot, dec, false)
		droot.end(nil)
		if err != nil {
			res.fail("objects decorator: %v", err)
			return nil
		}
		if d.rep.States != base.rep.States || d.rep.Transitions != base.rep.Transitions {
			res.fail("objects decorator run explored %d states / %d transitions, untraced run %d / %d: decorator run rejected",
				d.rep.States, d.rep.Transitions, base.rep.States, base.rep.Transitions)
			return nil
		}

		checkS := c.verdict.Seconds()
		states := float64(c.rep.States)
		snap := c.sink.Snapshot()
		add("explore.check_s", checkS)
		add("explore.states", states)
		add("explore.transitions", float64(c.rep.Transitions))
		add("explore.states_per_s", states/checkS)
		add("explore.runs", float64(snap.Counters["explore.runs"]))
		add("explore.allocs_per_state", float64(c.mem.mallocs)/states)
		add("explore.bytes_per_state", float64(c.mem.bytes)/states)
		add("explore.gc_cycles", float64(c.mem.gcs))
		add("explore.gc_pause_ms", float64(c.mem.pause)/1e6)
		lv := snap.Histograms["explore.level_ns"]
		add("explore.level_p50_ms", float64(lv.P50)/1e6)
		add("explore.level_max_ms", float64(histMax(lv))/1e6)
		add("explore.frontier_max", float64(snap.Gauges["explore.frontier_max"]))
		add("explore.valency_critical", float64(snap.Counters["explore.valency.critical"]))
		add("explore.valency_s", checkS-noVal.verdict.Seconds())
		add("machine.steps", float64(c.steps))
		add("machine.steps_per_s", float64(c.steps)/checkS)
		n, ns := float64(calls.Load()), float64(stepNs.Load())
		add("objects.step_calls", n)
		add("objects.step_ns_mean", ratio(ns, n))
		add("objects.step_share", ns/1e9/d.verdict.Seconds())
		add("objects.transitions_per_step", ratio(float64(d.rep.Transitions), n))
		add("store.spilled_mb", float64(snap.Counters["store.spilled_bytes"])/mb)
		add("store.arena_faults", float64(snap.Counters["store.arena_faults"]))
		add("store.heap_max_mb", float64(snap.Gauges["store.heap_bytes_max"])/mb)
		add("store.disk_mb", float64(c.storeDisk)/mb)
		add("store.close_ms", float64(c.closeDur)/1e6)
		stall := float64(snap.Counters["explore.checkpoint_ns"]) / 1e6
		add("checkpoint.count", float64(snap.Counters["explore.checkpoints"]))
		add("checkpoint.mb", float64(snap.Counters["explore.checkpoint_bytes"])/mb)
		add("checkpoint.stall_ms", stall)
		add("checkpoint.share", stall/1e3/checkS)
		add("checkpoint.file_mb", float64(c.ckptFile)/mb)
		add("obs.trace_overhead_pct", 100*(checkS-base.verdict.Seconds())/base.verdict.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	return perLayerResult(res, tr, cfg, m)
}

// histMax is the upper bound of the highest occupied bucket.
func histMax(h obs.HistogramSnapshot) int64 {
	if len(h.Buckets) == 0 {
		return 0
	}
	bit := h.Buckets[len(h.Buckets)-1].Bit
	return int64(1)<<bit - 1
}

// decorate returns sys with every object wrapped in a forwarding
// decorator that counts and times Step calls.
func decorate(sys *explore.System) (*explore.System, *atomic.Int64, *atomic.Int64) {
	calls, ns := new(atomic.Int64), new(atomic.Int64)
	objs := make([]spec.Spec, len(sys.Objects))
	for i, o := range sys.Objects {
		objs[i] = timedSpec{Spec: o, calls: calls, ns: ns}
	}
	return &explore.System{Programs: sys.Programs, Objects: objs, Inputs: sys.Inputs}, calls, ns
}

// timedSpec forwards to Spec, timing Step, and forwards the
// Deterministic and ValueOblivious extensions.
type timedSpec struct {
	spec.Spec
	calls, ns *atomic.Int64
}

func (t timedSpec) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	start := time.Now()
	tr, err := t.Spec.Step(s, op)
	t.ns.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return tr, err
}

func (t timedSpec) Deterministic() bool  { return spec.Deterministic(t.Spec) }
func (t timedSpec) ValueOblivious() bool { return spec.ValueOblivious(t.Spec) }
