// The -bench-sweeps mode: time the two reference falsification sweeps
// (Thm 5.2's 49-candidate symmetric sweep and Thm 7.1's 1116-candidate
// DAC sweep) with cross-candidate memoization off and on, verify the
// two engines render byte-identical reports in-process, and write the
// comparison as JSON for bench_experiments.jq / BENCH_experiments.json.
//
// Honest framing: the memoized candidates/sec is a COVERED rate —
// every candidate receives its exact verdict, but most are settled by
// attributing a memoized equivalence-class verdict rather than by a
// fresh exploration. The unmemoized rate is the concrete-exploration
// rate. The ratio is the user-visible sweep wall-clock win, not a
// claim that the explorer itself got faster.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"setagree/internal/enumerate"
	"setagree/internal/obs"
	"setagree/internal/task"
)

// sweepBenchRun is one timed sweep execution.
type sweepBenchRun struct {
	ElapsedNs        int64   `json:"elapsed_ns"`
	CandidatesPerSec float64 `json:"candidates_per_sec"`
	States           int     `json:"states"`
	MemoHits         int64   `json:"memo_hits"`
	DedupCandidates  int64   `json:"dedup_candidates"`
}

// sweepBench compares the memoized and unmemoized engines on one sweep.
type sweepBench struct {
	ID              string        `json:"id"`
	Candidates      int           `json:"candidates"`
	MemoOff         sweepBenchRun `json:"memo_off"`
	MemoOn          sweepBenchRun `json:"memo_on"`
	Speedup         float64       `json:"speedup"`
	RenderIdentical bool          `json:"render_identical"`
}

// renderSweepReport flattens a Report into a canonical string with
// every pointer dereferenced (mirrors the enumerate test suite's
// renderer), so string equality means byte-identical report content.
func renderSweepReport(rep *enumerate.Report) string {
	s := fmt.Sprintf("candidates=%d pruned=%d states=%d fallbacks=%d\nsolvers=%v\ninconclusive=%v\n",
		rep.Candidates, rep.Pruned, rep.States, rep.SymmetryFallbacks, rep.Solvers, rep.Inconclusive)
	if rep.SampleFailure != nil {
		f := rep.SampleFailure
		s += fmt.Sprintf("failure: %v on %v: %v\nwitness=%v cycle=%v\n",
			f.Assignment.Shapes, f.Inputs, f.Violation.Error(),
			f.Violation.Witness, f.Violation.Cycle)
	}
	return s
}

// benchIterations is how many times each engine configuration runs;
// the fastest iteration is reported. Minimum-of-N is the standard way
// to strip scheduler noise, cold caches, and GC pauses out of a
// wall-clock comparison: the minimum is the run least perturbed by
// the host, and both engines get the same treatment.
const benchIterations = 5

// benchOneSweep times fn with memoization off then on, each with a
// fresh metrics sink per iteration (and, inside fn, a fresh Prepared —
// FalsifyDAC / FalsifySymmetric re-enumerate per call, so no state
// leaks between runs). Counters come from the fastest iteration;
// they are iteration-invariant apart from schedule-dependent memo
// splits.
func benchOneSweep(id string, fn func(opts enumerate.SweepOptions) (*enumerate.Report, error), workers int) (sweepBench, error) {
	run := func(disable bool) (sweepBenchRun, *enumerate.Report, error) {
		var best sweepBenchRun
		var bestRep *enumerate.Report
		for it := 0; it < benchIterations; it++ {
			sink := obs.NewSink()
			start := time.Now()
			rep, err := fn(enumerate.SweepOptions{Workers: workers, Obs: sink, DisableMemo: disable})
			elapsed := time.Since(start)
			if err != nil {
				return sweepBenchRun{}, nil, err
			}
			snap := sink.Snapshot()
			r := sweepBenchRun{
				ElapsedNs:        elapsed.Nanoseconds(),
				CandidatesPerSec: float64(rep.Candidates) / elapsed.Seconds(),
				States:           rep.States,
				MemoHits:         snap.Counters["sweep.memo_hits"],
				DedupCandidates:  snap.Counters["sweep.dedup_candidates"],
			}
			if bestRep == nil || r.ElapsedNs < best.ElapsedNs {
				best, bestRep = r, rep
			}
		}
		return best, bestRep, nil
	}
	off, offRep, err := run(true)
	if err != nil {
		return sweepBench{}, fmt.Errorf("%s memo=off: %w", id, err)
	}
	on, onRep, err := run(false)
	if err != nil {
		return sweepBench{}, fmt.Errorf("%s memo=on: %w", id, err)
	}
	return sweepBench{
		ID:              id,
		Candidates:      offRep.Candidates,
		MemoOff:         off,
		MemoOn:          on,
		Speedup:         on.CandidatesPerSec / off.CandidatesPerSec,
		RenderIdentical: renderSweepReport(offRep) == renderSweepReport(onRep),
	}, nil
}

// runBenchSweeps executes the benchmark and writes its JSON to path.
// Exit status 0 on success (regardless of the measured speedups —
// thresholds are gated downstream by the Makefile), 2 on error.
func runBenchSweeps(path string, workers int, stderr io.Writer) int {
	vectors := binaryVectors(3)
	sweeps := []struct {
		id string
		fn func(opts enumerate.SweepOptions) (*enumerate.Report, error)
	}{
		{"thm52", func(opts enumerate.SweepOptions) (*enumerate.Report, error) {
			return enumerate.FalsifySymmetric(theorem42Family(1), task.Consensus{N: 3}, vectors, opts)
		}},
		{"thm71", func(opts enumerate.SweepOptions) (*enumerate.Report, error) {
			return enumerate.FalsifyDAC(theorem71Family(), 3, vectors, opts)
		}},
	}
	out := struct {
		Tool   string       `json:"tool"`
		Sweeps []sweepBench `json:"sweeps"`
	}{Tool: "experiments -bench-sweeps"}
	for _, s := range sweeps {
		b, err := benchOneSweep(s.id, s.fn, workers)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: bench-sweeps: %v\n", err)
			return 2
		}
		out.Sweeps = append(out.Sweeps, b)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "experiments: bench-sweeps: %v\n", err)
		return 2
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "experiments: bench-sweeps: %v\n", err)
		return 2
	}
	return 0
}
