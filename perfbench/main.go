// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload against the layers' public entry points —
// explore.Check and Report.Close, enumerate.PrepareDAC and
// Prepared.CheckRange, and the dacd HTTP API — times every call,
// checks every verdict against the reference answers in
// reference.json, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds this command and the
// daemon first):
//
//	bash perfbench/run.sh --workload explore-n7-durable --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics of
// a separate traced run, and the run's spans are written to
// .bench_out/trace-<workload>-<seed>.json. See README.md for the workloads, the metrics, and the
// layer-to-end-to-end predictions.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload: run measures it for the given
// budget and fills res.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, res *result) error
}

var workloads = []workload{
	{"explore-n7-durable", runExplore},
	{"sweep-thm42-d2", runSweep},
	{"dacd-mixed", runDacd},
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string // where a traced run writes its spans
	// work is the run's scratch directory inside the checkout; every
	// store, checkpoint and daemon data directory lives under it and it
	// is removed before the process exits.
	work string
}

// dacdBinary is where run.sh builds the daemon.
const dacdBinary = ".bench_build/bin/dacd"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists every wrong verdict, failed operation and broken
	// determinism pin; any entry fails the run.
	problems []string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a wrong or failed operation. It counts in Failed (and so
// in failed_ratio) and makes the run exit non-zero.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var secs int
	var trace int
	var writeRef string
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&secs, "seconds", 20, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&writeRef, "write-reference", "", "recompute the reference answers, cross-validate them, write them to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if writeRef != "" {
		if err := writeReference(writeRef); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, workloadNames())
		return 2
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	cfg.traceOut = filepath.Join(".bench_out", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_out", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.work = work
	defer os.RemoveAll(work)

	// SIGINT/SIGTERM cancel the workload, which stops its daemon and
	// removes its directories before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if err := w.run(ctx, cfg, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation completed\n", cfg.workload)
		return 1
	}
	if cfg.trace {
		res.set("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	} else if len(res.Metrics) != len(endToEnd) {
		fmt.Fprintf(stderr, "perfbench: %s: reported %d end-to-end metrics, want %d\n", cfg.workload, len(res.Metrics), len(endToEnd))
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", cfg.workload, p)
	}
	res.Correct = len(res.problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measureSetup runs a workload's set-up setupReps times and returns the
// median wall time; the last repetition's state is kept (earlier ones
// are released with their cleanup).
const setupReps = 11

func measureSetup[T any](setup func() (T, func(), error)) (T, float64, error) {
	var times []float64
	for {
		start := time.Now()
		v, cleanup, err := setup()
		times = append(times, time.Since(start).Seconds())
		if err != nil || len(times) == setupReps {
			return v, median(times), err
		}
		cleanup()
	}
}

// loop runs op until the budget is spent, at least minIters times.
func loop(ctx context.Context, budget time.Duration, minIters int, op func(i int) error) error {
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < budget; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// loopCycles runs op in whole cycles of cycle calls: as many cycles as
// fill the budget at the workload's nominal cycle time, at least one.
// The count follows from the budget, not from the pace a run sees, so
// every run takes the same number of samples however fast the machine
// is at the time.
func loopCycles(ctx context.Context, budget, nominal time.Duration, cycle int, op func(i int) error) error {
	n := cycle * max(1, int((budget+nominal/2)/nominal))
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// mean returns the mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least 10 samples
// beyond it, and that percentile. With 20 samples or fewer that
// percentile would not lie above the median, and the maximum is
// returned instead, as percentile 100.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 20 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// iterations are the per-verdict samples of an in-process workload.
type iterations struct {
	verdict, cpu, alloc []float64 // s, s, MB
}

func (it *iterations) add(verdict, cpu time.Duration, allocBytes uint64) {
	it.verdict = append(it.verdict, verdict.Seconds())
	it.cpu = append(it.cpu, cpu.Seconds())
	it.alloc = append(it.alloc, float64(allocBytes)/mb)
}

// endToEnd fills the end-to-end metrics of an in-process workload. One
// iteration is one checked verdict, so the job metrics describe
// verdicts. The iterations cycle through different inputs, so
// verdict_s, cpu_s and alloc_mb are means over whole cycles.
func (it *iterations) endToEnd(res *result, setupS float64) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	ms := make([]float64, len(it.verdict))
	for i, v := range it.verdict {
		ms[i] = v * 1e3
	}
	res.set("setup_s", setupS, "s")
	res.set("verdict_s", mean(it.verdict), "s")
	res.set("cpu_s", mean(it.cpu), "s")
	res.set("alloc_mb", mean(it.alloc), "MB")
	res.set("peak_rss_mb", rss, "MB")
	res.set("jobs_per_s", 1/mean(it.verdict), "1/s")
	res.set("job_p50_ms", median(ms), "ms")
	return nil
}

// cpuSelf returns this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf returns a child process's user+system CPU time from /proc.
func cpuOf(pid int) (time.Duration, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line (11 and 12 after the name).
	rest := string(buf)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	// Linux reports both in USER_HZ ticks, 100 per second.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB returns VmHWM of a process ("self" or a pid) in MB.
func peakRSSMB(proc string) (float64, error) {
	buf, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", proc)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// memDelta is the allocation and GC work between two MemStats reads.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     uint64(after.NumGC - before.NumGC),
		pause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

const mb = 1 << 20

// ratio divides, returning 0 when the base is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
