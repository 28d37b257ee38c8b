// Command dacload is the checking-cluster benchmark and load harness:
// it spawns a local cluster (one coordinator dacd + N worker dacds,
// plus a plain single daemon as baseline), runs the Theorem 7.1 sweep
// through both paths, floods the coordinator's jobs API with
// concurrent clients, and writes BENCH_cluster.json. It exits 1 when
// any SLO fails:
//
//   - the cluster sweep's merged report must be byte-identical to the
//     single-daemon report,
//   - the p99 submit latency must stay under -slo-p99-ms,
//   - the bounded queue must push back (at least -slo-min-429 429s),
//   - every 429 must carry a Retry-After in [1,30] seconds.
//
// Usage (normally via `make loadtest`):
//
//	dacload -dacd bin/dacd [-workers 2] [-clients 40] [-per-client 3]
//	        [-max-pending 16] [-shards 8] [-slo-p99-ms 2000]
//	        [-slo-min-429 1] [-out BENCH_cluster.json]
//
// Exit status: 0 all SLOs hold, 1 SLO violation, 2 harness error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"setagree/internal/cluster"
	"setagree/internal/jobs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type daemon struct {
	cmd  *exec.Cmd
	base string
}

// spawn starts one dacd on a fresh temp data directory and waits for
// its greeting line to learn the listen address.
func spawn(bin string, extra ...string) (*daemon, error) {
	dir, err := os.MkdirTemp("", "dacload-*")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dir, "-job-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("dacd exited before announcing its address")
	}
	const marker = "listening on http://"
	line := sc.Text()
	i := strings.Index(line, marker)
	if i < 0 {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("unexpected dacd greeting: %q", line)
	}
	go io.Copy(io.Discard, out)
	return &daemon{cmd: cmd, base: "http://" + strings.Fields(line[i+len(marker):])[0]}, nil
}

func (d *daemon) stop() {
	if d != nil && d.cmd.Process != nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

// submit posts one job; on 202 it returns the job ID.
func submit(client *http.Client, base, kind string, spec any) (*http.Response, error) {
	buf, err := json.Marshal(map[string]any{"kind": kind, "spec": spec})
	if err != nil {
		return nil, err
	}
	return client.Post(base+"/jobs", "application/json", bytes.NewReader(buf))
}

// runSweep submits a sweep job, waits for it, and returns the raw
// result document and the elapsed wall time.
func runSweep(client *http.Client, base string, spec any, timeout time.Duration) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := submit(client, base, "sweep", spec)
	if err != nil {
		return nil, 0, err
	}
	var job jobs.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, 0, fmt.Errorf("sweep submit: status %d, %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(timeout)
	for {
		jr, err := client.Get(base + "/jobs/" + job.ID)
		if err != nil {
			return nil, 0, err
		}
		var j jobs.Job
		err = json.NewDecoder(jr.Body).Decode(&j)
		jr.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if j.State == jobs.Done {
			elapsed := time.Since(start)
			rr, err := client.Get(base + "/jobs/" + job.ID + "/result")
			if err != nil {
				return nil, 0, err
			}
			defer rr.Body.Close()
			buf, err := io.ReadAll(rr.Body)
			if err != nil || rr.StatusCode != http.StatusOK {
				return nil, 0, fmt.Errorf("sweep result: status %d, %v", rr.StatusCode, err)
			}
			return buf, elapsed, nil
		}
		if j.State.Terminal() {
			return nil, 0, fmt.Errorf("sweep job %s: %s (%s)", j.ID, j.State, j.Error)
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("sweep job %s still %s after %v", j.ID, j.State, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// loadStats aggregates the flood phase.
type loadStats struct {
	mu                sync.Mutex
	latencies         []time.Duration
	accepted          int
	rejected          int
	invalidRetryAfter int
	ids               []string
}

func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Microseconds()) / 1000.0
}

func run(args []string) int {
	fs := flag.NewFlagSet("dacload", flag.ContinueOnError)
	bin := fs.String("dacd", "bin/dacd", "path to the dacd binary to spawn")
	workers := fs.Int("workers", 2, "worker daemons behind the coordinator")
	clients := fs.Int("clients", 40, "concurrent load clients")
	perClient := fs.Int("per-client", 3, "accepted submissions per client")
	maxPending := fs.Int("max-pending", 16, "coordinator queue bound (the backpressure under test)")
	shards := fs.Int("shards", 8, "shard count for the Thm 7.1 sweep")
	sloP99 := fs.Int("slo-p99-ms", 2000, "SLO: p99 submit latency bound, ms")
	sloMin429 := fs.Int("slo-min-429", 1, "SLO: minimum 429 responses the flood must draw")
	out := fs.String("out", "BENCH_cluster.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "dacload: %v\n", err)
		return 2
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Phase 1: single-daemon baseline sweep.
	single, err := spawn(*bin)
	if err != nil {
		return fail(err)
	}
	defer single.stop()
	sweepSpec := map[string]any{"sweep": cluster.Thm71(), "shards": *shards}
	fmt.Println("dacload: phase 1 — Thm 7.1 sweep on a single daemon")
	singleRep, singleElapsed, err := runSweep(client, single.base, sweepSpec, 3*time.Minute)
	if err != nil {
		return fail(err)
	}
	var repHead struct {
		Candidates int `json:"candidates"`
	}
	if err := json.Unmarshal(singleRep, &repHead); err != nil {
		return fail(err)
	}

	// Phase 2: the same sweep through coordinator + workers.
	var workerDaemons []*daemon
	var workerURLs []string
	for i := 0; i < *workers; i++ {
		w, err := spawn(*bin)
		if err != nil {
			return fail(err)
		}
		defer w.stop()
		workerDaemons = append(workerDaemons, w)
		workerURLs = append(workerURLs, w.base)
	}
	coord, err := spawn(*bin, "-workers", strings.Join(workerURLs, ","),
		"-max-pending", strconv.Itoa(*maxPending))
	if err != nil {
		return fail(err)
	}
	defer coord.stop()
	fmt.Printf("dacload: phase 2 — same sweep through coordinator + %d workers\n", *workers)
	clusterRep, clusterElapsed, err := runSweep(client, coord.base, sweepSpec, 3*time.Minute)
	if err != nil {
		return fail(err)
	}
	identical := bytes.Equal(singleRep, clusterRep)

	// Phase 3: flood the coordinator with tiny sweeps from concurrent
	// clients; measure submit latency and the 429 backpressure.
	fmt.Printf("dacload: phase 3 — %d clients x %d accepted submissions (queue bound %d)\n",
		*clients, *perClient, *maxPending)
	tiny := map[string]any{
		"sweep": cluster.SweepSpec{
			Task:    cluster.TaskSpec{Kind: "consensus", N: 2},
			Objects: []cluster.ObjectSpec{{Kind: "register"}},
			Menu: []cluster.InvokeSpec{
				{Obj: 0, Method: "write", Arg: "input"},
				{Obj: 0, Method: "read"},
			},
			Depth:   1,
			Actions: []string{"decide-input", "decide-last", "decide-0", "retry"},
		},
		"shards": 1,
	}
	var (
		stats     loadStats
		wg        sync.WaitGroup
		hardError atomic.Value
	)
	loadStart := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for accepted := 0; accepted < *perClient; {
				begin := time.Now()
				resp, err := submit(client, coord.base, "sweep", tiny)
				if err != nil {
					hardError.Store(err)
					return
				}
				latency := time.Since(begin)
				switch resp.StatusCode {
				case http.StatusAccepted:
					var j jobs.Job
					if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
						hardError.Store(err)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
					stats.mu.Lock()
					stats.latencies = append(stats.latencies, latency)
					stats.accepted++
					stats.ids = append(stats.ids, j.ID)
					stats.mu.Unlock()
					accepted++
				case http.StatusTooManyRequests:
					ra := resp.Header.Get("Retry-After")
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					secs, err := strconv.Atoi(ra)
					stats.mu.Lock()
					stats.latencies = append(stats.latencies, latency)
					stats.rejected++
					if err != nil || secs < 1 || secs > 30 {
						stats.invalidRetryAfter++
					}
					stats.mu.Unlock()
					if err != nil || secs < 1 {
						secs = 1
					}
					// Honor the hint, capped so a pessimistic estimate
					// cannot stall the harness.
					if secs > 2 {
						secs = 2
					}
					time.Sleep(time.Duration(secs) * time.Second)
				default:
					body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
					resp.Body.Close()
					hardError.Store(fmt.Errorf("submit: %s: %s", resp.Status, body))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, ok := hardError.Load().(error); ok && err != nil {
		return fail(err)
	}
	submitElapsed := time.Since(loadStart)

	// Drain: wait for every accepted job to reach a terminal state.
	drainDeadline := time.Now().Add(3 * time.Minute)
	for {
		resp, err := client.Get(coord.base + "/jobs")
		if err != nil {
			return fail(err)
		}
		var list struct {
			Jobs []jobs.Job `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			return fail(err)
		}
		open := 0
		for _, j := range list.Jobs {
			if !j.State.Terminal() {
				open++
			}
		}
		if open == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			return fail(fmt.Errorf("%d jobs still open after drain deadline", open))
		}
		time.Sleep(100 * time.Millisecond)
	}
	totalElapsed := time.Since(loadStart)

	sort.Slice(stats.latencies, func(a, b int) bool { return stats.latencies[a] < stats.latencies[b] })
	p50 := percentile(stats.latencies, 0.50)
	p90 := percentile(stats.latencies, 0.90)
	p99 := percentile(stats.latencies, 0.99)
	total := stats.accepted + stats.rejected

	doc := map[string]any{
		"date": time.Now().Format("2006-01-02"),
		"question": "does partitioning the Thm 7.1 sweep across worker daemons preserve the report byte-for-byte, " +
			"and does the jobs API hold its latency and backpressure contract under concurrent load?",
		"sweep": map[string]any{
			"candidates": repHead.Candidates,
			"shards":     *shards,
			"single": map[string]any{
				"elapsed_ms":         singleElapsed.Milliseconds(),
				"candidates_per_sec": float64(repHead.Candidates) / singleElapsed.Seconds(),
			},
			"cluster": map[string]any{
				"workers":            *workers,
				"elapsed_ms":         clusterElapsed.Milliseconds(),
				"candidates_per_sec": float64(repHead.Candidates) / clusterElapsed.Seconds(),
			},
			"report_identical": identical,
			"note": "the Thm 7.1 sweep is ~70ms of compute, so the cluster path measures dispatch overhead, " +
				"not speedup; the acceptance property is byte-identity of the merged report",
		},
		"load": map[string]any{
			"clients":             *clients,
			"per_client":          *perClient,
			"max_pending":         *maxPending,
			"accepted":            stats.accepted,
			"rejected_429":        stats.rejected,
			"rate_429":            float64(stats.rejected) / float64(total),
			"invalid_retry_after": stats.invalidRetryAfter,
			"submit_ms":           map[string]any{"p50": p50, "p90": p90, "p99": p99},
			"submit_elapsed_ms":   submitElapsed.Milliseconds(),
			"drained_elapsed_ms":  totalElapsed.Milliseconds(),
			"jobs_per_sec":        float64(stats.accepted) / totalElapsed.Seconds(),
		},
	}
	sloPass := identical &&
		repHead.Candidates == 1116 &&
		p99 <= float64(*sloP99) &&
		stats.rejected >= *sloMin429 &&
		stats.invalidRetryAfter == 0
	doc["slo"] = map[string]any{
		"p99_ms_limit": *sloP99,
		"min_429":      *sloMin429,
		"pass":         sloPass,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return fail(err)
	}

	fmt.Printf("dacload: sweep identical=%v single=%dms cluster=%dms\n", identical,
		singleElapsed.Milliseconds(), clusterElapsed.Milliseconds())
	fmt.Printf("dacload: load accepted=%d 429=%d invalid_retry_after=%d p50=%.1fms p90=%.1fms p99=%.1fms\n",
		stats.accepted, stats.rejected, stats.invalidRetryAfter, p50, p90, p99)
	if !sloPass {
		fmt.Fprintf(os.Stderr, "dacload: SLO FAILED (identical=%v candidates=%d p99=%.1fms limit=%dms rejected=%d min=%d invalid_ra=%d)\n",
			identical, repHead.Candidates, p99, *sloP99, stats.rejected, *sloMin429, stats.invalidRetryAfter)
		return 1
	}
	fmt.Printf("dacload: all SLOs hold; wrote %s\n", *out)
	return 0
}
