package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"setagree/internal/cluster"
)

// daemon is one dacd child process with a fresh data directory.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	data string
	done chan struct{} // closed once the process has been waited for
}

// startDaemon spawns dacd on a free port with nproc job workers and the
// profiler mounted (for its allocation totals), and waits until
// /healthz answers.
func startDaemon(ctx context.Context, data string) (*daemon, error) {
	cmd := exec.Command(dacdBinary, "-addr", "127.0.0.1:0", "-data", data,
		"-job-workers", strconv.Itoa(runtime.NumCPU()), "-pprof")
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dacd: %w", err)
	}
	d := &daemon{cmd: cmd, data: data, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.Fields(line[i+len("listening on "):])[0]:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		close(d.done)
	}()
	select {
	case d.url = <-addr:
	case <-d.done:
		return nil, errors.New("dacd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("dacd did not start listening within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("dacd /healthz did not answer: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, kills the daemon if it has not exited after 10s,
// and waits until the process is gone.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// totalAlloc reads the daemon's cumulative allocated bytes from the
// MemStats footer of its heap profile.
func (d *daemon) totalAlloc() (int64, error) {
	resp, err := http.Get(d.url + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("no TotalAlloc in the daemon's heap profile")
}

// journalBytes reads the job journal's size from GET /jobs.
func (d *daemon) journalBytes() (int64, error) {
	resp, err := http.Get(d.url + "/jobs")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		JournalBytes int64 `json:"journal_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("GET /jobs: %w", err)
	}
	return body.JournalBytes, nil
}

// jobReq is one submission of the mix.
type jobReq struct {
	kind string // reporting kind: explore, sweep, collections
	body []byte // POST /jobs body
	ref  string // reference key for sweeps
}

// jobDeck returns one shuffled deck of the mix: alg2 explore jobs at
// n=4 and n=5 (valency on, seeded inputs and distinguished process),
// the Thm 5.2 and Thm 7.1 sweeps, and the reference collections sweep.
// Every deck holds the same jobs, so every seed sends the same mix.
func jobDeck(rng *rand.Rand) []jobReq {
	var deck []jobReq
	for _, n := range []int{4, 5} {
		inputs := exploreInputs(rng.Int63(), n)
		x := inputs[rng.Intn(len(inputs))]
		parts := make([]string, n)
		for i, v := range x.in {
			parts[i] = strconv.Itoa(int(v))
		}
		body, _ := json.Marshal(map[string]any{"kind": "explore", "spec": map[string]any{
			"protocol": "alg2", "n": n, "p": x.p, "inputs": strings.Join(parts, ","), "valency": true,
		}})
		deck = append(deck, jobReq{kind: "explore", body: body})
	}
	for _, name := range []string{"thm52", "thm71"} {
		body, _ := json.Marshal(map[string]any{"kind": "sweep", "spec": map[string]any{"sweep": sweepSpecs[name]()}})
		deck = append(deck, jobReq{kind: "sweep", body: body, ref: name})
	}
	body, _ := json.Marshal(map[string]any{"kind": "collections-sweep",
		"spec": map[string]any{"collections": cluster.CollectionsRef()}})
	deck = append(deck, jobReq{kind: "collections", body: body})
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// jobSample is one completed job as the client saw it.
type jobSample struct {
	id                  string
	kind                string
	submit, wait, fetch time.Duration
	total               time.Duration
}

// window is one closed-loop measurement window.
type window struct {
	samples  []jobSample
	rejected int
	elapsed  time.Duration
}

// closedLoop runs nproc clients against d for budget. Each client, on
// its own connection and with no think time, submits the next job of
// its seeded deck, waits for the job's SSE done frame, fetches and
// checks the result, and only then submits again.
func closedLoop(ctx context.Context, d *daemon, seed int64, budget time.Duration, ref *reference, tr *tracer, res *result) *window {
	var (
		mu  sync.Mutex
		w   = &window{}
		wg  sync.WaitGroup
		seq int
	)
	start := time.Now()
	clients := runtime.NumCPU()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			var deck []jobReq
			for time.Since(start) < budget && ctx.Err() == nil {
				if len(deck) == 0 {
					deck = jobDeck(rng)
				}
				job := deck[0]
				deck = deck[1:]
				mu.Lock()
				seq++
				root := tr.root("job", seq)
				mu.Unlock()
				s, retry, err := runJob(ctx, client, d.url, job, ref, root)
				root.end(nil)
				mu.Lock()
				res.Attempted++
				switch {
				case retry > 0:
					w.rejected++
					res.Failed++
				case err != nil:
					res.fail("%s job %s: %v", job.kind, s.id, err)
				default:
					w.samples = append(w.samples, s)
				}
				mu.Unlock()
				if retry > 0 {
					time.Sleep(retry)
				}
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// runJob submits one job, waits for its SSE done frame, fetches its
// result and checks it. A refused (429) submission returns the
// Retry-After delay.
func runJob(ctx context.Context, client *http.Client, base string, job jobReq, ref *reference, root *span) (jobSample, time.Duration, error) {
	s := jobSample{kind: job.kind}
	t0 := time.Now()

	sp := root.child("http.submit")
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(job.body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		sp.end(nil)
		return s, 0, fmt.Errorf("POST /jobs: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end(map[string]float64{"status": float64(resp.StatusCode)})
	if resp.StatusCode == http.StatusTooManyRequests {
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return s, time.Duration(max(secs, 1)) * time.Second, nil
	}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return s, 0, fmt.Errorf("POST /jobs: status %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return s, 0, fmt.Errorf("POST /jobs: bad body %s", body)
	}
	s.id = sub.ID
	t1 := time.Now()
	s.submit = t1.Sub(t0)

	sp = root.child("sse.wait")
	state, frames, err := waitDone(ctx, client, base+"/jobs/"+s.id+"/events")
	sp.end(map[string]float64{"frames": float64(frames)})
	if err != nil {
		return s, 0, err
	}
	if state != "done" {
		return s, 0, fmt.Errorf("job ended %s", state)
	}
	t2 := time.Now()
	s.wait = t2.Sub(t1)

	sp = root.child("http.result")
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+s.id+"/result", nil)
	resp, err = client.Do(req)
	if err != nil {
		sp.end(nil)
		return s, 0, fmt.Errorf("GET result: %w", err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end(map[string]float64{"bytes": float64(len(body))})
	if err != nil || resp.StatusCode != http.StatusOK {
		return s, 0, fmt.Errorf("GET result: status %d: %s", resp.StatusCode, body)
	}
	t3 := time.Now()
	s.fetch = t3.Sub(t2)
	s.total = t3.Sub(t0)
	return s, 0, checkJobResult(job, body, ref)
}

// waitDone reads the job's SSE stream until its done frame and
// returns the terminal state and the number of data frames seen.
func waitDone(ctx context.Context, client *http.Client, url string) (string, int, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("GET events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	frames, done := 0, false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			done = true
		case strings.HasPrefix(line, "data: "):
			if !done {
				frames++
				continue
			}
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return "", frames, fmt.Errorf("bad done frame %q", line)
			}
			io.Copy(io.Discard, resp.Body)
			return st.State, frames, nil
		}
	}
	return "", frames, fmt.Errorf("event stream ended without a done frame: %v", sc.Err())
}

// checkJobResult compares a job's result document with the reference.
func checkJobResult(job jobReq, body []byte, ref *reference) error {
	switch job.kind {
	case "explore":
		var r struct {
			Verdict string `json:"verdict"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Verdict != ref.Explore {
			return fmt.Errorf("verdict %q, reference %q", r.Verdict, ref.Explore)
		}
	case "sweep":
		var r struct {
			Candidates   int               `json:"candidates"`
			Pruned       int               `json:"pruned"`
			Solvers      []json.RawMessage `json:"solvers"`
			Inconclusive []json.RawMessage `json:"inconclusive"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		got := sweepRef{Candidates: r.Candidates, Pruned: r.Pruned, Solvers: len(r.Solvers), Inconclusive: len(r.Inconclusive)}
		if want := ref.Sweeps[job.ref]; got != want {
			return fmt.Errorf("sweep %s: %+v, reference %+v", job.ref, got, want)
		}
	case "collections":
		var r struct {
			Rows []collectionRow `json:"rows"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Rows) != len(ref.Collections) {
			return fmt.Errorf("%d collection rows, reference %d", len(r.Rows), len(ref.Collections))
		}
		for i, row := range r.Rows {
			if row != ref.Collections[i] {
				return fmt.Errorf("collection row %d: %+v, reference %+v", i, row, ref.Collections[i])
			}
		}
	}
	return nil
}

// computeTimes reads each job's time in the running state from the
// daemon's job journal (the last running transition to done).
func computeTimes(data string) (map[string]time.Duration, error) {
	buf, err := os.ReadFile(filepath.Join(data, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	running := map[string]time.Time{}
	out := map[string]time.Duration{}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var j struct {
			ID      string    `json:"id"`
			State   string    `json:"state"`
			Updated time.Time `json:"updated"`
		}
		if err := json.Unmarshal(line, &j); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		switch j.State {
		case "running":
			running[j.ID] = j.Updated
		case "done":
			if t, ok := running[j.ID]; ok {
				out[j.ID] = j.Updated.Sub(t)
			}
		}
	}
	return out, nil
}

// daemonReadings are the daemon's totals at a window boundary.
type daemonReadings struct {
	cpu     time.Duration
	alloc   int64
	journal int64
}

func (d *daemon) read() (daemonReadings, error) {
	var r daemonReadings
	var err error
	if r.cpu, err = cpuOf(d.cmd.Process.Pid); err != nil {
		return r, err
	}
	if r.alloc, err = d.totalAlloc(); err != nil {
		return r, err
	}
	r.journal, err = d.journalBytes()
	return r, err
}

func runDacd(ctx context.Context, cfg config, res *result) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	// Set-up makes a fresh data directory and spawns the daemon until
	// /healthz answers.
	reps := 0
	d, setupS, err := measureSetup(func() (*daemon, func(), error) {
		reps++
		data := filepath.Join(cfg.work, fmt.Sprintf("dacd-data-%d", reps))
		d, err := startDaemon(ctx, data)
		if err != nil {
			return nil, nil, err
		}
		return d, func() { d.stop(); os.RemoveAll(data) }, nil
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(d.data)
	defer d.stop()

	measure := func(budget time.Duration, tr *tracer) (*window, daemonReadings, daemonReadings, error) {
		before, err := d.read()
		if err != nil {
			return nil, before, before, err
		}
		w := closedLoop(ctx, d, cfg.seed, budget, ref, tr, res)
		after, err := d.read()
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err == nil && len(w.samples) == 0 {
			err = errors.New("no job completed")
		}
		return w, before, after, err
	}

	if !cfg.trace {
		w, before, after, err := measure(cfg.seconds, nil)
		if err != nil {
			return err
		}
		rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return err
		}
		jobs := float64(len(w.samples))
		lat := latenciesMs(w.samples)
		res.set("setup_s", setupS, "s")
		res.set("verdict_s", median(lat)/1e3, "s")
		res.set("cpu_s", (after.cpu-before.cpu).Seconds()/jobs, "s")
		res.set("alloc_mb", float64(after.alloc-before.alloc)/mb/jobs, "MB")
		res.set("peak_rss_mb", rss, "MB")
		res.set("jobs_per_s", jobs/w.elapsed.Seconds(), "1/s")
		res.set("job_p50_ms", median(lat), "ms")
		return nil
	}

	// Traced: an untraced window, then a traced one of the same length;
	// the layer metrics come from the traced window.
	base, _, _, err := measure(cfg.seconds/2, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	w, before, after, err := measure(cfg.seconds/2, tr)
	if err != nil {
		return err
	}
	compute, err := computeTimes(d.data)
	if err != nil {
		return err
	}
	m := map[string][]float64{}
	add := func(name string, v float64) { m[name] = append(m[name], v) }
	for _, s := range w.samples {
		add("dacd.submit_ms", float64(s.submit)/1e6)
		add("dacd.wait_ms", float64(s.wait)/1e6)
		add("dacd.result_ms", float64(s.fetch)/1e6)
		if c, ok := compute[s.id]; ok {
			add("dacd.compute_ms."+s.kind, float64(c)/1e6)
			add("dacd.overhead_ms", float64(s.total-c)/1e6)
		}
	}
	jobs := float64(len(w.samples))
	add("dacd.rejected_429", float64(w.rejected))
	add("jobs.journal_bytes_per_job", float64(after.journal-before.journal)/jobs)
	add("jobs.data_dir_kb_per_job", float64(dirBytes(d.data))/1024/float64(len(w.samples)+len(base.samples)))
	lat := latenciesMs(w.samples)
	tailMs, pct := tail(lat)
	add("dacd.job_tail_ms", tailMs)
	fmt.Fprintf(os.Stderr, "perfbench: dacd.job_tail_ms is p%.1f of %d samples\n", pct, len(lat))
	baseP50, p50 := median(latenciesMs(base.samples)), median(lat)
	add("obs.trace_overhead_pct", 100*(p50-baseP50)/baseP50)
	return perLayerResult(res, tr, cfg, m)
}

func latenciesMs(samples []jobSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.total) / 1e6
	}
	return out
}
