package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"setagree/internal/jobs"
	"setagree/internal/obs"
)

// family is one kind of sweep the cluster shards: a falsification
// sweep (SweepSpec) or a set-consensus collections sweep
// (CollectionsSpec). The spec is the family: it names the worker job,
// prepares itself for checking, and merges its shard results R into
// its canonical document D. Everything else — shard bounds, the
// in-process loop, dispatch, retry, backpressure, metrics, events — is
// the one pipeline in run.
type family[R, D any] interface {
	// shardKind is the jobs-API kind of the family's worker jobs.
	shardKind() string
	// shardJob is the worker job spec for candidates [lo, hi).
	shardJob(lo, hi, paceMs int) any
	// checker validates the spec and prepares it for checking ranges.
	checker() (*rangeChecker[R], error)
	// progress is a shard result's progress figure for the cluster.*
	// metrics and events: explored states for sweeps, decided
	// collections for collections sweeps.
	progress(*R) int
	// merge folds shard results tiling [0, candidates) into the
	// family's document.
	merge(candidates int, shards []*R) (*D, error)
	// doneFields are the family's cluster.done event fields.
	doneFields(*D) obs.Fields
}

// rangeChecker is a family's spec made ready to check: its index space
// and a range checker that any number of shards may share.
type rangeChecker[R any] struct {
	// candidates is the size of the index space, [0, candidates).
	candidates int
	// rowWidth is the shard-alignment hint (see shardBounds).
	rowWidth int
	// check decides [lo, hi); a non-nil pace runs after every
	// candidate.
	check func(ctx context.Context, lo, hi int, pace func(), sink *obs.Sink, events *obs.Emitter) (*R, error)
}

// pacer is the PaceMs test knob as a per-candidate hook: a sleep that
// stretches sweeps enough to kill a worker mid-shard. Nil when off.
func pacer(paceMs int) func() {
	if paceMs <= 0 {
		return nil
	}
	pace := time.Duration(paceMs) * time.Millisecond
	return func() { time.Sleep(pace) }
}

// The worker cache shares one rangeChecker per spec across the shard
// jobs of one coordinated sweep that hit the same daemon — and with it
// the sweep's memo table or the collections engine's cost tables, so
// what one shard learns accelerates every later shard of the same
// sweep. Sharing is transparent: preparation is deterministic in the
// spec, and memoization only caches verdicts that re-checking would
// reproduce. Small and unordered — a daemon serves few distinct sweeps
// at a time; on overflow the cache simply resets. Only worker shard
// jobs use it: a whole sweep run in-process prepares afresh, so no
// memo hit crosses from one job into another's events and counters.
var (
	cacheMu sync.Mutex
	cache   = map[string]any{}
)

const cacheCap = 8

func cachedChecker[R, D any](f family[R, D]) (*rangeChecker[R], error) {
	key, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	k := f.shardKind() + string(key)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if c, ok := cache[k]; ok {
		return c.(*rangeChecker[R]), nil
	}
	c, err := f.checker()
	if err != nil {
		return nil, err
	}
	if len(cache) >= cacheCap {
		cache = map[string]any{}
	}
	cache[k] = c
	return c, nil
}

// runShard checks one shard in-process through the worker cache: the
// worker half of the cluster protocol.
func runShard[R, D any](ctx context.Context, f family[R, D], lo, hi, paceMs int, sink *obs.Sink, events *obs.Emitter) (*R, error) {
	c, err := cachedChecker(f)
	if err != nil {
		return nil, err
	}
	return c.check(ctx, lo, hi, pacer(paceMs), sink, events)
}

// Options configures a coordinated sweep.
type Options struct {
	// Workers is the list of worker daemon base URLs. Empty runs every
	// shard in-process — the single-daemon baseline, through the exact
	// pipeline the cluster uses, so the two render identical bytes.
	Workers []string
	// Shards is the number of candidate-range shards; 0 derives it:
	// 4 per worker (for load balance), or 1 with no workers.
	Shards int
	// MaxAttempts is how many failed dispatches a shard survives
	// before the sweep aborts (0 = 8). Each worker death, fetch error,
	// or failed job costs one attempt; the shard requeues in between.
	MaxAttempts int
	// PaceMs is forwarded into every shard job (see ShardJob.PaceMs).
	PaceMs int
	// Obs receives cluster.* metrics; Events the cluster.* event log.
	Obs    *obs.Sink
	Events *obs.Emitter
}

// client carries every worker call but the event streams.
var client = &http.Client{Timeout: 30 * time.Second}

// streamClient carries the shard jobs' event streams. A stream lasts as
// long as its shard, so it has no overall timeout; the caller's ctx
// bounds it instead.
var streamClient = &http.Client{}

// failBackoff is the first pause of a worker loop after a failed
// shard; it doubles with each consecutive failure, up to 5 s.
const failBackoff = 200 * time.Millisecond

func (o Options) shardCount(candidates int) int {
	n := o.Shards
	if n < 1 {
		n = max(4*len(o.Workers), 1)
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

// run executes one sweep of any family: shard the index space, check
// every shard (in-process, or dispatched across Workers with retry),
// and merge into the family's canonical document. The document is a
// pure function of the spec — identical bytes at any worker count,
// shard boundary, or retry schedule.
func run[R, D any](ctx context.Context, f family[R, D], o Options) (*D, error) {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 8
	}
	doc, err := runShards(ctx, f, o)
	if err != nil {
		o.Events.Emit("cluster.error", obs.Fields{"error": err.Error()})
		return nil, err
	}
	fields := f.doneFields(doc)
	fields["workers"] = len(o.Workers)
	o.Events.Emit("cluster.done", fields)
	return doc, nil
}

func runShards[R, D any](ctx context.Context, f family[R, D], o Options) (*D, error) {
	c, err := f.checker()
	if err != nil {
		return nil, err
	}
	bounds := shardBounds(c.candidates, o.shardCount(c.candidates), c.rowWidth)
	if len(o.Workers) > 0 {
		shards, err := dispatchCluster(ctx, f, bounds, o)
		if err != nil {
			return nil, err
		}
		return f.merge(c.candidates, shards)
	}
	// In-process, sequentially: the single-daemon baseline through the
	// same bounds and merge, so the two render identical bytes.
	pace := pacer(o.PaceMs)
	shards := make([]*R, 0, len(bounds))
	for _, b := range bounds {
		r, err := c.check(ctx, b[0], b[1], pace, o.Obs, o.Events)
		if err != nil {
			return nil, err
		}
		shards = append(shards, r)
		o.Obs.Counter("cluster.shards").Inc()
		o.Obs.Counter("cluster.candidates").Add(int64(b[1] - b[0]))
		o.Obs.Counter("cluster.states").Add(int64(f.progress(r)))
	}
	return f.merge(c.candidates, shards)
}

type shardResult[R any] struct {
	idx     int
	rep     *R
	worker  string
	elapsed time.Duration
	err     error
}

// dispatchCluster runs one shard job per bounds entry across the
// workers: pull-based load balancing (idle workers take the next
// shard) and requeue-with-attempts on any worker failure. Returns the
// decoded shard results in bounds order.
func dispatchCluster[R, D any](ctx context.Context, f family[R, D], bounds [][2]int, o Options) ([]*R, error) {
	ctx, cancel := context.WithCancel(ctx)
	dispatch := make(chan int)
	results := make(chan shardResult[R])
	for _, w := range o.Workers {
		go workerLoop(ctx, w, f, bounds, o, dispatch, results)
	}
	// Stop the workers before returning, whatever path exits.
	defer cancel()

	o.Obs.Gauge("cluster.workers").Set(int64(len(o.Workers)))
	queue := make([]int, len(bounds))
	for i := range queue {
		queue[i] = i
	}
	done := make([]*R, len(bounds))
	fails := make([]int, len(bounds))
	for remaining := len(bounds); remaining > 0; {
		// Only offer a dispatch when there is something to dispatch.
		var (
			dispatchCh chan<- int
			next       int
		)
		if len(queue) > 0 {
			dispatchCh = dispatch
			next = queue[0]
		}

		select {
		case <-ctx.Done():
			return nil, ctx.Err()

		case dispatchCh <- next:
			queue = queue[1:]

		case r := <-results:
			b := bounds[r.idx]
			if r.err != nil {
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
				continue
			}
			done[r.idx] = r.rep
			remaining--
			progress := f.progress(r.rep)
			o.Obs.Counter("cluster.shards").Inc()
			o.Obs.Counter("cluster.candidates").Add(int64(b[1] - b[0]))
			o.Obs.Counter("cluster.states").Add(int64(progress))
			o.Obs.Histogram("cluster.shard_ms").Observe(r.elapsed.Milliseconds())
			o.Events.Emit("cluster.shard.done", obs.Fields{
				"lo": b[0], "hi": b[1], "worker": r.worker,
				"states": progress, "elapsed_ms": r.elapsed.Milliseconds(),
			})
		}
	}
	return done, nil
}

// workerLoop serves one worker URL: take a shard, run it remotely,
// decode the result, deliver the outcome. A result that does not
// decode fails the attempt, so a worker returning garbage is retried
// like a dead one. Consecutive failures back off exponentially so a
// dead worker — which fails in microseconds — doesn't outrace the
// healthy workers for every requeued shard and burn through a shard's
// attempt budget while they are busy.
func workerLoop[R, D any](ctx context.Context, base string, f family[R, D], bounds [][2]int, o Options, dispatch <-chan int, results chan<- shardResult[R]) {
	consecFails := 0
	for {
		var idx int
		select {
		case <-ctx.Done():
			return
		case idx = <-dispatch:
		}
		start := time.Now()
		raw, err := runShardOn(ctx, base, f.shardKind(), f.shardJob(bounds[idx][0], bounds[idx][1], o.PaceMs))
		var rep *R
		if err == nil {
			rep = new(R)
			if err = json.Unmarshal(raw, rep); err != nil {
				err = fmt.Errorf("cluster: bad %s result: %w", f.shardKind(), err)
			}
		}
		select {
		case <-ctx.Done():
			return
		case results <- shardResult[R]{idx: idx, rep: rep, worker: base, elapsed: time.Since(start), err: err}:
		}
		if err == nil {
			consecFails = 0
			continue
		}
		consecFails++
		backoff := failBackoff << min(consecFails, 6)
		if backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
		sleepCtx(ctx, backoff)
	}
}

// runShardOn runs one shard job on a worker daemon over the jobs API:
// submit (honoring 429 Retry-After backpressure), wait for the done
// frame of the job's event stream, fetch the raw result document.
func runShardOn(ctx context.Context, base, kind string, job any) ([]byte, error) {
	id, err := submitJob(ctx, base, kind, job)
	if err != nil {
		return nil, err
	}
	state, err := waitJob(ctx, base, id)
	if err != nil {
		return nil, err
	}
	if state != jobs.Done {
		j, err := getJob(ctx, base, id)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("cluster: shard job %s on %s %s: %s", id, base, j.State, j.Error)
	}
	return fetchShardResult(ctx, base, id)
}

// waitJob follows job id's SSE event stream on a worker to its
// `event: done` frame and returns the terminal state the frame
// carries. A stream that ends first (the worker died or shut down)
// is an error.
func waitJob(ctx context.Context, base, id string) (jobs.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := streamClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cluster: events %s/jobs/%s: %s", base, id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	done := false
	for {
		line, err := br.ReadSlice('\n')
		long := false
		for err == bufio.ErrBufferFull {
			// Only data frames outgrow the buffer; skip the rest.
			long = true
			_, err = br.ReadSlice('\n')
		}
		if err != nil {
			return "", fmt.Errorf("cluster: events %s/jobs/%s: stream ended before the done frame: %w", base, id, err)
		}
		if long {
			continue
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok && done {
			var frame struct {
				State jobs.State `json:"state"`
			}
			if err := json.Unmarshal(data, &frame); err != nil || !frame.State.Terminal() {
				return "", fmt.Errorf("cluster: events %s/jobs/%s: bad done frame %q", base, id, data)
			}
			return frame.State, nil
		}
		done = string(line) == "event: done"
	}
}

func submitJob(ctx context.Context, base, kind string, spec any) (string, error) {
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
		resp, err := client.Do(req)
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

func getJob(ctx context.Context, base, id string) (*jobs.Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
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

func fetchShardResult(ctx context.Context, base, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
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
