package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"setagree/internal/jobs"
)

func opsServer(t *testing.T, opts serverOptions, runners map[string]jobs.Runner) (*httptest.Server, *jobs.Store) {
	t.Helper()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	pool := jobs.NewPool(store, 1, runners)
	ts := httptest.NewServer(newServer(store, pool, opts))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { pool.Drain(context.Background()) })
	return ts, store
}

// TestDashboardAssets: the embedded dashboard serves with the right
// content types and unknown paths still 404 (the index route is exact).
func TestDashboardAssets(t *testing.T) {
	t.Parallel()
	ts, _ := opsServer(t, serverOptions{}, nil)
	cases := []struct {
		path, wantType, marker string
	}{
		{"/", "text/html", "<table id=\"jobs\">"},
		{"/static/app.js", "text/javascript", "explore.heartbeat"},
		{"/static/style.css", "text/css", ".spark"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", c.path, resp.Status)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, c.wantType) {
			t.Errorf("GET %s: content type %q, want %s", c.path, ct, c.wantType)
		}
		if !strings.Contains(string(body), c.marker) {
			t.Errorf("GET %s: body missing %q", c.path, c.marker)
		}
	}
	for _, path := range []string{"/nonsense", "/static/missing.js", "/jobs/job-999999/dot"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %s, want 404", path, resp.Status)
		}
	}
}

// TestDotEndpoint: a job submitted with "dot": true serves its graph,
// and one without 404s.
func TestDotEndpoint(t *testing.T) {
	t.Parallel()
	ts, _ := opsServer(t, serverOptions{}, map[string]jobs.Runner{"explore": runExploreJob})

	withDot := submitExplore(t, ts.URL, map[string]any{"protocol": "alg2", "n": 3, "p": 1, "dot": true})
	waitJob(t, ts.URL, withDot.ID, jobs.Done, 30*time.Second)
	resp, err := http.Get(ts.URL + "/jobs/" + withDot.ID + "/dot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dot fetch: %s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/vnd.graphviz") {
		t.Errorf("dot content type %q", ct)
	}
	if !strings.HasPrefix(string(body), "digraph") {
		t.Errorf("dot body does not start with digraph: %.60q", body)
	}

	plain := submitExplore(t, ts.URL, map[string]any{"protocol": "alg2", "n": 3, "p": 1})
	waitJob(t, ts.URL, plain.ID, jobs.Done, 30*time.Second)
	if resp, err := http.Get(ts.URL + "/jobs/" + plain.ID + "/dot"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dotless job: %v %v, want 404", resp.Status, err)
	} else {
		resp.Body.Close()
	}
}

// TestSSEKeepalive: a slow stream (running job that emits nothing)
// still carries `: keepalive` comment frames on the configured cadence
// and the X-Accel-Buffering opt-out, so proxies neither buffer nor
// reap it; when the job finishes, the done frame still arrives.
func TestSSEKeepalive(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	ts, _ := opsServer(t, serverOptions{KeepAlive: 80 * time.Millisecond}, map[string]jobs.Runner{
		"block": func(ctx context.Context, s *jobs.Store, j jobs.Job) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})
	job := decodeJob(t, postJSON(t, ts.URL+"/jobs", map[string]any{"kind": "block"}))
	waitJob(t, ts.URL, job.ID, jobs.Running, 10*time.Second)

	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Accel-Buffering"); got != "no" {
		t.Errorf("X-Accel-Buffering = %q, want no", got)
	}

	type scanMsg struct {
		line string
		err  error
	}
	lines := make(chan scanMsg, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- scanMsg{line: sc.Text()}
		}
		lines <- scanMsg{err: io.EOF}
	}()
	readLine := func() string {
		t.Helper()
		select {
		case m := <-lines:
			if m.err != nil {
				t.Fatal("stream ended before expected frame")
			}
			return m.line
		case <-time.After(5 * time.Second):
			t.Fatal("no SSE frame within 5s")
			return ""
		}
	}

	// The idle stream must produce two keepalive comments (proving a
	// cadence, not a one-shot) before any data.
	keepalives := 0
	for keepalives < 2 {
		line := readLine()
		if strings.HasPrefix(line, "data:") {
			t.Fatalf("unexpected data frame on idle stream: %q", line)
		}
		if strings.HasPrefix(line, ": keepalive") {
			keepalives++
		}
	}

	close(release)
	deadline := time.After(10 * time.Second)
	for {
		select {
		case m := <-lines:
			if m.err != nil {
				t.Fatal("stream ended without done frame")
			}
			if m.line == "event: done" {
				return
			}
		case <-deadline:
			t.Fatal("no done frame after job completion")
		}
	}
}

// TestDashboardLiveDataPath drives exactly the pipeline the dashboard
// JS consumes for its sparkline: poll GET /jobs for a running paced
// job, tail its SSE stream, and turn explore.heartbeat events into
// rate samples. The run must yield at least two samples with growing
// state counts — the data a live sparkline is drawn from.
func TestDashboardLiveDataPath(t *testing.T) {
	t.Parallel()
	ts, _ := opsServer(t, serverOptions{}, map[string]jobs.Runner{"explore": runExploreJob})
	job := submitExplore(t, ts.URL, map[string]any{
		"protocol": "alg2", "n": 4, "p": 1,
		"workers": 1, "heartbeat_every": 64, "checkpoint_every": 1, "pace_ms": 50,
	})
	waitJob(t, ts.URL, job.ID, jobs.Running, 10*time.Second)

	// The dashboard's poll loop: GET /jobs must list the job running
	// with the disk-size footer fields present.
	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list listResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Jobs) != 1 || list.JournalBytes <= 0 {
		t.Fatalf("poll view: %d jobs, journal %d bytes", len(list.Jobs), list.JournalBytes)
	}

	// The dashboard's EventSource: collect heartbeat samples live.
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type sample struct{ states, frontier float64 }
	var samples []sample
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(60 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		if line == "event: done" {
			break
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev["event"] != "explore.heartbeat" {
			continue
		}
		states, ok := ev["states"].(float64)
		frontier, fok := ev["frontier"].(float64)
		if !ok || !fok {
			t.Fatalf("heartbeat missing sparkline fields: %v", ev)
		}
		samples = append(samples, sample{states, frontier})
		if len(samples) >= 2 {
			break
		}
	}
	if len(samples) < 2 {
		t.Fatalf("got %d heartbeat samples, want >= 2 for a sparkline", len(samples))
	}
	if samples[1].states <= samples[0].states {
		t.Errorf("states not growing across heartbeats: %v", samples)
	}
	waitJob(t, ts.URL, job.ID, jobs.Done, 120*time.Second)
}

// TestSSEStreamsLinesWrittenAtExit: a job that writes its last event
// line and returns at once must still have that line streamed before
// the done frame. The events handler used to read the file first and
// check the job's state second, so a job that finished in between
// ended the stream without its final lines. Many concurrent short jobs
// (their journal fsyncs contending for the store lock) and randomized
// release times make it likely some trial lands in that window.
func TestSSEStreamsLinesWrittenAtExit(t *testing.T) {
	t.Parallel()
	const trials = 96
	var gates sync.Map // job ID -> chan struct{}
	gate := func(id string) chan struct{} {
		c, _ := gates.LoadOrStore(id, make(chan struct{}))
		return c.(chan struct{})
	}
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	pool := jobs.NewPool(store, trials, map[string]jobs.Runner{
		"last": func(ctx context.Context, s *jobs.Store, j jobs.Job) ([]byte, error) {
			<-gate(j.ID)
			return []byte(`{}`), os.WriteFile(s.EventsPath(j.ID), []byte("{\"event\":\"last\"}\n"), 0o644)
		},
	})
	ts := httptest.NewServer(newServer(store, pool, serverOptions{KeepAlive: -1}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { pool.Drain(context.Background()) })

	var wg sync.WaitGroup
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, err := json.Marshal(map[string]any{"kind": "last"})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			var job jobs.Job
			err = json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			stream, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
			if err != nil {
				t.Error(err)
				return
			}
			defer stream.Body.Close()
			// The handler is tailing; release the job at a random point
			// of its 100 ms poll cycle.
			time.Sleep(time.Duration(i*2113%100) * time.Millisecond)
			close(gate(job.ID))
			body, err := io.ReadAll(stream.Body)
			if err != nil {
				t.Error(err)
				return
			}
			last := bytes.Index(body, []byte(`data: {"event":"last"}`))
			done := bytes.Index(body, []byte("event: done"))
			if last < 0 || done < last {
				t.Errorf("%s: stream ended without the job's last line:\n%s", job.ID, body)
			}
		}(i)
	}
	wg.Wait()
}

// TestSSEDoneFollowsCompletion: the done frame follows the job's
// terminal transition directly. Each gated job writes one event line
// through its events file and returns when released; the median time
// from release to the `event: done` line must stay far below the
// 100 ms cadence the handler once polled the file at (such a loop
// needed one tick for the line and another for the done frame).
func TestSSEDoneFollowsCompletion(t *testing.T) {
	t.Parallel()
	const trials = 24
	var gates sync.Map // job ID -> chan struct{}
	gate := func(id string) chan struct{} {
		c, _ := gates.LoadOrStore(id, make(chan struct{}))
		return c.(chan struct{})
	}
	ts, _ := opsServer(t, serverOptions{KeepAlive: -1}, map[string]jobs.Runner{
		"gated": func(ctx context.Context, s *jobs.Store, j jobs.Job) ([]byte, error) {
			<-gate(j.ID)
			ef, err := s.OpenEvents(j.ID, false)
			if err != nil {
				return nil, err
			}
			defer ef.Close()
			_, err = ef.Write([]byte("{\"event\":\"last\"}\n"))
			return []byte(`{}`), err
		},
	})

	latencies := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		job := decodeJob(t, postJSON(t, ts.URL+"/jobs", map[string]any{"kind": "gated"}))
		waitJob(t, ts.URL, job.ID, jobs.Running, 10*time.Second)
		stream, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		release := time.Now()
		close(gate(job.ID))
		sc := bufio.NewScanner(stream.Body)
		var body strings.Builder
		for sc.Scan() && sc.Text() != "event: done" {
			body.WriteString(sc.Text() + "\n")
		}
		latencies = append(latencies, time.Since(release))
		sc.Scan()
		stream.Body.Close()
		if !strings.Contains(body.String(), `data: {"event":"last"}`) || sc.Text() != `data: {"state":"done"}` {
			t.Fatalf("%s: stream lacks the last line or the done frame:\n%s--\n%s", job.ID, body.String(), sc.Text())
		}
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	median := latencies[trials/2]
	t.Logf("release to done frame over %d jobs: median %v, max %v", trials, median, latencies[trials-1])
	if median > 50*time.Millisecond {
		t.Errorf("median release-to-done latency %v, want <= 50ms", median)
	}
}
