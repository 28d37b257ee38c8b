package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"setagree/internal/enumerate"
	"setagree/internal/jobs"
	"setagree/internal/obs"
)

// ShardJob is the "sweep-shard" job spec a coordinator submits to a
// worker daemon: rebuild the sweep, check candidates [Lo, Hi).
type ShardJob struct {
	Sweep SweepSpec `json:"sweep"`
	Lo    int       `json:"lo"`
	Hi    int       `json:"hi"`
	// PaceMs sleeps after each candidate — a test knob that stretches
	// sweeps enough to kill a worker mid-shard.
	PaceMs int `json:"pace_ms,omitempty"`
}

// preparedCache memoizes Prepare() by spec JSON, so the many shard
// jobs of one coordinated sweep hitting the same daemon share a single
// Prepared — and with it the memo table, so verdict classes learned
// checking one shard accelerate every later shard of the same sweep.
// Sharing is transparent: Prepare is deterministic in the spec, and
// the memo only caches verdicts that re-checking would reproduce.
// Small and unordered — a daemon serves few distinct sweeps at a time;
// on overflow the cache simply resets.
var (
	preparedMu    sync.Mutex
	preparedCache = map[string]*enumerate.Prepared{}
)

const preparedCacheCap = 8

func preparedFor(sp SweepSpec) (*enumerate.Prepared, error) {
	key, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	preparedMu.Lock()
	defer preparedMu.Unlock()
	if p, ok := preparedCache[string(key)]; ok {
		return p, nil
	}
	p, err := sp.Prepare()
	if err != nil {
		return nil, err
	}
	if len(preparedCache) >= preparedCacheCap {
		preparedCache = map[string]*enumerate.Prepared{}
	}
	preparedCache[string(key)] = p
	return p, nil
}

// RunShard checks one shard in-process: the worker half of the
// cluster protocol, also used directly by dacd's sweep-shard runner.
func RunShard(ctx context.Context, job ShardJob, sink *obs.Sink, events *obs.Emitter) (*ShardReport, error) {
	p, err := preparedFor(job.Sweep)
	if err != nil {
		return nil, err
	}
	vectors, err := job.Sweep.Vectors()
	if err != nil {
		return nil, err
	}
	opts, err := job.Sweep.Options()
	if err != nil {
		return nil, err
	}
	opts.Ctx = ctx
	opts.Obs = sink
	opts.Events = events
	if job.PaceMs > 0 {
		pace := time.Duration(job.PaceMs) * time.Millisecond
		opts.OnProgress = func(enumerate.Progress) { time.Sleep(pace) }
	}
	rr, err := p.CheckRange(job.Lo, job.Hi, vectors, opts)
	if err != nil {
		return nil, err
	}
	return ShardReportOf(rr), nil
}

// Options configures a coordinated sweep.
type Options struct {
	// Workers is the list of worker daemon base URLs. Empty runs every
	// shard in-process — the single-daemon baseline, through the exact
	// pipeline the cluster uses, so the two render identical bytes.
	Workers []string
	// Shards is the number of candidate-range shards; 0 derives it:
	// 4 per worker (for balance under stealing), or 1 with no workers.
	Shards int
	// ShardSize, when Shards is 0, caps candidates per shard instead.
	ShardSize int
	// MaxAttempts is how many failed dispatches a shard survives
	// before the sweep aborts (0 = 8). Each worker death, fetch error,
	// or failed job costs one attempt; the shard requeues in between.
	MaxAttempts int
	// StealAfter is how long the coordinator waits with idle workers
	// and an empty queue before speculatively re-dispatching the least
	// duplicated in-flight shard (straggler defense; first result
	// wins — safe because shard results are deterministic). 0 = 30s,
	// negative disables.
	StealAfter time.Duration
	// Poll is the job status poll cadence (0 = 50ms).
	Poll time.Duration
	// PaceMs is forwarded into every shard job (see ShardJob.PaceMs).
	PaceMs int
	// Client is the HTTP client for worker calls (nil = 30s timeout).
	Client *http.Client
	// Obs receives cluster.* metrics; Events the cluster.* event log.
	Obs    *obs.Sink
	Events *obs.Emitter
}

func (o Options) fill() Options {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 8
	}
	if o.StealAfter == 0 {
		o.StealAfter = 30 * time.Second
	}
	if o.Poll == 0 {
		o.Poll = 50 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return o
}

func (o Options) shardCount(candidates int) int {
	n := o.Shards
	switch {
	case n > 0:
	case o.ShardSize > 0:
		n = (candidates + o.ShardSize - 1) / o.ShardSize
	case len(o.Workers) > 0:
		n = 4 * len(o.Workers)
	default:
		n = 1
	}
	if n < 1 {
		n = 1
	}
	if candidates > 0 && n > candidates {
		n = candidates
	}
	return n
}

// shardBounds splits [0, candidates) into n near-equal ranges with
// interior boundaries rounded to multiples of rowWidth, so the
// candidates sharing a leading shape (one row) land in one shard and
// the memo entries they record and probe stay in one worker's table
// instead of being re-derived across the cut. Alignment is an
// efficiency hint only — verdicts are range-independent, so any
// partition merges identically.
func shardBounds(candidates, n, rowWidth int) [][2]int {
	if rowWidth < 1 {
		rowWidth = 1
	}
	bounds := make([][2]int, 0, n)
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + (candidates-lo)/(n-i)
		if i < n-1 {
			if r := hi % rowWidth; r != 0 {
				// Round to the nearer row boundary, staying in [lo, candidates].
				if 2*r >= rowWidth && hi+rowWidth-r <= candidates {
					hi += rowWidth - r
				} else if hi-r >= lo {
					hi -= r
				}
			}
		} else {
			hi = candidates
		}
		bounds = append(bounds, [2]int{lo, hi})
		lo = hi
	}
	return bounds
}

// Run executes the sweep: shard the candidate space, check every
// shard (in-process, or dispatched across Workers with retry and
// stealing), and merge into the canonical SweepReport. The returned
// document is a pure function of the spec — identical bytes at any
// worker count, shard boundary, retry, or steal schedule.
func Run(ctx context.Context, sp SweepSpec, o Options) (*SweepReport, error) {
	o = o.fill()
	rep, err := run(ctx, sp, o)
	if err != nil {
		o.Events.Emit("cluster.error", obs.Fields{"error": err.Error()})
		return nil, err
	}
	o.Events.Emit("cluster.done", obs.Fields{
		"candidates": rep.Candidates,
		"states":     rep.States,
		"solvers":    len(rep.Solvers),
		"refuted":    rep.Refuted,
		"workers":    len(o.Workers),
	})
	return rep, nil
}

func run(ctx context.Context, sp SweepSpec, o Options) (*SweepReport, error) {
	p, err := sp.Prepare()
	if err != nil {
		return nil, err
	}
	n := p.Candidates()
	bounds := shardBounds(n, o.shardCount(n), p.RowWidth())
	if len(o.Workers) == 0 {
		return runLocal(ctx, sp, p, bounds, o)
	}
	return runCluster(ctx, sp, n, bounds, o)
}

// runLocal checks every shard in-process, sequentially.
func runLocal(ctx context.Context, sp SweepSpec, p *enumerate.Prepared, bounds [][2]int, o Options) (*SweepReport, error) {
	vectors, err := sp.Vectors()
	if err != nil {
		return nil, err
	}
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	opts.Ctx = ctx
	opts.Obs = o.Obs
	opts.Events = o.Events
	if o.PaceMs > 0 {
		pace := time.Duration(o.PaceMs) * time.Millisecond
		opts.OnProgress = func(enumerate.Progress) { time.Sleep(pace) }
	}
	shards := make([]*ShardReport, 0, len(bounds))
	for _, b := range bounds {
		rr, err := p.CheckRange(b[0], b[1], vectors, opts)
		if err != nil {
			return nil, err
		}
		shards = append(shards, ShardReportOf(rr))
		o.Obs.Counter("cluster.shards").Inc()
		o.Obs.Counter("cluster.candidates").Add(int64(b[1] - b[0]))
		o.Obs.Counter("cluster.states").Add(int64(rr.States))
	}
	return Merge(p.Candidates(), shards)
}

type shardResult struct {
	idx     int
	raw     []byte
	states  int
	worker  string
	elapsed time.Duration
	err     error
}

// shardProto abstracts one shard-job family over the dispatch loop:
// sweep shards and collections shards share the pull-based load
// balancing, retry, stealing, and backpressure machinery; only the job
// payload and the result document differ.
type shardProto struct {
	// kind is the jobs-API job kind workers run.
	kind string
	// job builds the shard job spec for range [lo, hi).
	job func(lo, hi int) any
	// states validates a raw result document and extracts its progress
	// figure (explored states for sweeps, decided collections for
	// collections sweeps) for the cluster.* metrics and events. An
	// error fails the attempt, so a worker returning garbage is retried
	// like a dead one.
	states func(raw []byte) (int, error)
}

// runCluster dispatches sweep shards to worker daemons and merges the
// results into the canonical report.
func runCluster(ctx context.Context, sp SweepSpec, candidates int, bounds [][2]int, o Options) (*SweepReport, error) {
	proto := shardProto{
		kind: "sweep-shard",
		job:  func(lo, hi int) any { return ShardJob{Sweep: sp, Lo: lo, Hi: hi, PaceMs: o.PaceMs} },
		states: func(raw []byte) (int, error) {
			var sr ShardReport
			if err := json.Unmarshal(raw, &sr); err != nil {
				return 0, fmt.Errorf("cluster: bad shard result: %w", err)
			}
			return sr.States, nil
		},
	}
	raws, err := dispatchCluster(ctx, bounds, proto, o)
	if err != nil {
		return nil, err
	}
	shards := make([]*ShardReport, len(raws))
	for i, raw := range raws {
		var sr ShardReport
		if err := json.Unmarshal(raw, &sr); err != nil {
			return nil, fmt.Errorf("cluster: shard [%d,%d) result: %w", bounds[i][0], bounds[i][1], err)
		}
		shards[i] = &sr
	}
	return Merge(candidates, shards)
}

// dispatchCluster runs one shard job per bounds entry across the
// workers: pull-based load balancing (idle workers take the next
// shard), requeue-with-attempts on any worker failure, and speculative
// re-dispatch of in-flight shards once the queue drains (work
// stealing). Returns the raw result documents in bounds order.
func dispatchCluster(ctx context.Context, bounds [][2]int, proto shardProto, o Options) ([][]byte, error) {
	ctx, cancel := context.WithCancel(ctx)
	dispatch := make(chan int)
	results := make(chan shardResult)
	for _, w := range o.Workers {
		go workerLoop(ctx, w, proto, bounds, o, dispatch, results)
	}
	// Stop the workers before returning, whatever path exits.
	defer cancel()

	o.Obs.Gauge("cluster.workers").Set(int64(len(o.Workers)))
	var (
		queue     []int
		done      = make([][]byte, len(bounds))
		inflight  = make([]int, len(bounds))
		fails     = make([]int, len(bounds))
		remaining = len(bounds)
	)
	for i := range bounds {
		queue = append(queue, i)
	}

	for remaining > 0 {
		// Only offer a dispatch when there is something to dispatch,
		// and only arm the steal timer when there is not.
		var (
			dispatchCh chan<- int
			next       int
			stealCh    <-chan time.Time
			stealTimer *time.Timer
		)
		if len(queue) > 0 {
			dispatchCh = dispatch
			next = queue[0]
		} else if o.StealAfter > 0 {
			stealTimer = time.NewTimer(o.StealAfter)
			stealCh = stealTimer.C
		}

		select {
		case <-ctx.Done():
			return nil, ctx.Err()

		case dispatchCh <- next:
			queue = queue[1:]
			inflight[next]++

		case <-stealCh:
			// Re-dispatch the least duplicated unfinished shard.
			victim := -1
			for i := range bounds {
				if done[i] == nil && (victim < 0 || inflight[i] < inflight[victim]) {
					victim = i
				}
			}
			if victim >= 0 {
				queue = append(queue, victim)
				o.Obs.Counter("cluster.shards_stolen").Inc()
				o.Events.Emit("cluster.shard.steal", obs.Fields{
					"lo": bounds[victim][0], "hi": bounds[victim][1],
					"inflight": inflight[victim],
				})
			}

		case r := <-results:
			inflight[r.idx]--
			b := bounds[r.idx]
			switch {
			case done[r.idx] != nil:
				// A steal already finished this shard; whether the losing
				// copy succeeded or died, the first result won.
			case r.err != nil:
				fails[r.idx]++
				if fails[r.idx] >= o.MaxAttempts {
					return nil, fmt.Errorf("cluster: shard [%d,%d) failed %d times, giving up: %w",
						b[0], b[1], fails[r.idx], r.err)
				}
				queue = append(queue, r.idx)
				o.Obs.Counter("cluster.shards_retried").Inc()
				o.Events.Emit("cluster.shard.retry", obs.Fields{
					"lo": b[0], "hi": b[1], "worker": r.worker,
					"attempt": fails[r.idx], "error": r.err.Error(),
				})
			default:
				done[r.idx] = r.raw
				remaining--
				o.Obs.Counter("cluster.shards").Inc()
				o.Obs.Counter("cluster.candidates").Add(int64(b[1] - b[0]))
				o.Obs.Counter("cluster.states").Add(int64(r.states))
				o.Obs.Histogram("cluster.shard_ms").Observe(r.elapsed.Milliseconds())
				o.Events.Emit("cluster.shard.done", obs.Fields{
					"lo": b[0], "hi": b[1], "worker": r.worker,
					"states": r.states, "elapsed_ms": r.elapsed.Milliseconds(),
				})
			}
		}
		if stealTimer != nil {
			stealTimer.Stop()
		}
	}
	return done, nil
}

// workerLoop serves one worker URL: take a shard, run it remotely,
// deliver the outcome. Consecutive failures back off exponentially so
// a dead worker — which fails in microseconds — doesn't outrace the
// healthy workers for every requeued shard and burn through a shard's
// attempt budget while they are busy.
func workerLoop(ctx context.Context, base string, proto shardProto, bounds [][2]int, o Options, dispatch <-chan int, results chan<- shardResult) {
	consecFails := 0
	for {
		var idx int
		select {
		case <-ctx.Done():
			return
		case idx = <-dispatch:
		}
		job := proto.job(bounds[idx][0], bounds[idx][1])
		start := time.Now()
		raw, err := runShardOn(ctx, base, proto.kind, job, o)
		states := 0
		if err == nil {
			states, err = proto.states(raw)
		}
		select {
		case <-ctx.Done():
			return
		case results <- shardResult{idx: idx, raw: raw, states: states, worker: base, elapsed: time.Since(start), err: err}:
		}
		if err == nil {
			consecFails = 0
			continue
		}
		consecFails++
		backoff := 4 * o.Poll << min(consecFails, 6)
		if backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
		sleepCtx(ctx, backoff)
	}
}

// runShardOn runs one shard job on a worker daemon over the jobs API:
// submit (honoring 429 Retry-After backpressure), poll to a terminal
// state, fetch the raw result document.
func runShardOn(ctx context.Context, base, kind string, job any, o Options) ([]byte, error) {
	id, err := submitJob(ctx, base, kind, job, o)
	if err != nil {
		return nil, err
	}
	for {
		j, err := getJob(ctx, base, id, o)
		if err != nil {
			return nil, err
		}
		switch j.State {
		case jobs.Done:
			return fetchShardResult(ctx, base, id, o)
		case jobs.Failed, jobs.Canceled:
			return nil, fmt.Errorf("cluster: shard job %s on %s %s: %s", id, base, j.State, j.Error)
		}
		if err := sleepCtx(ctx, o.Poll); err != nil {
			return nil, err
		}
	}
}

func submitJob(ctx context.Context, base, kind string, spec any, o Options) (string, error) {
	body, err := json.Marshal(map[string]any{"kind": kind, "spec": spec})
	if err != nil {
		return "", err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := o.Client.Do(req)
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Back-pressure: wait as instructed and resubmit.
			wait := retryAfterHint(resp.Header.Get("Retry-After"))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err := sleepCtx(ctx, wait); err != nil {
				return "", err
			}
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			buf, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return "", fmt.Errorf("cluster: submit to %s: %s: %s", base, resp.Status, bytes.TrimSpace(buf))
		}
		var j jobs.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			return "", fmt.Errorf("cluster: submit to %s: bad job body: %w", base, err)
		}
		return j.ID, nil
	}
}

// retryAfterHint parses a Retry-After value in seconds, clamped to
// something a coordinator can live with.
func retryAfterHint(h string) time.Duration {
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

func getJob(ctx context.Context, base, id string, o Options) (*jobs.Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := o.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: get %s/jobs/%s: %s", base, id, resp.Status)
	}
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, err
	}
	return &j, nil
}

func fetchShardResult(ctx context.Context, base, id string, o Options) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := o.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: result %s/jobs/%s: %s", base, id, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: result %s/jobs/%s: %w", base, id, err)
	}
	return raw, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
