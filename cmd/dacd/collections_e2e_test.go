package main

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"setagree/internal/cluster"
	"setagree/internal/jobs"
)

// TestCollectionsSweepE2E runs the reference collections sweep twice —
// once on a plain daemon in-process, once through a coordinator
// dispatching collections-shard jobs to a worker daemon — and requires
// byte-identical reports, the dacd_collections_* metric families on
// the worker, and collections.progress events in the job's stream (the
// dashboard's sparkline feed).
func TestCollectionsSweepE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon e2e")
	}

	worker := startDaemon(t, t.TempDir())
	coord := startDaemon(t, t.TempDir(), "-workers", worker.base)
	single := startDaemon(t, t.TempDir())

	spec := map[string]any{"collections": cluster.CollectionsRef(), "shards": 3}
	base := submitJob(t, single.base, "collections-sweep", spec)
	waitJob(t, single.base, base.ID, jobs.Done, time.Minute)
	want := rawResult(t, single.base, base.ID)
	if !bytes.Contains(want, []byte(`"collections": 6`)) {
		t.Fatalf("baseline is not the 6-collection reference sweep:\n%.400s", want)
	}

	cj := submitJob(t, coord.base, "collections-sweep", spec)
	done := waitJob(t, coord.base, cj.ID, jobs.Done, 2*time.Minute)
	if done.Error != "" {
		t.Fatalf("cluster collections sweep finished with error %q", done.Error)
	}
	got := rawResult(t, coord.base, cj.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("coordinated report differs from single-daemon report:\n--- cluster\n%s\n--- single\n%s", got, want)
	}

	// The worker decided every collection; its sink exports the
	// daemon-namespace collections families.
	mresp, err := http.Get(worker.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if decided := metricValue(t, metrics, "dacd_collections_decided_total"); decided != 6 {
		t.Errorf("dacd_collections_decided_total = %d, want 6", decided)
	}
	if _, err := http.Get(worker.base + "/healthz"); err != nil {
		t.Fatal(err)
	}

	// The single-daemon job's event stream feeds the dashboard: one
	// collections.progress line per decided collection.
	eresp, err := http.Get(single.base + "/jobs/" + base.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	events := readSome(t, eresp.Body, []byte("cluster.done"), 10*time.Second)
	if n := bytes.Count(events, []byte(`"event":"collections.progress"`)); n != 6 {
		t.Errorf("event stream has %d collections.progress events, want 6:\n%s", n, events)
	}
}

// readSome reads from r until the marker appears or the deadline
// passes (SSE streams stay open, so a plain ReadAll would hang).
func readSome(t *testing.T, r io.Reader, marker []byte, timeout time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	deadline := time.Now().Add(timeout)
	chunk := make([]byte, 4096)
	for time.Now().Before(deadline) {
		n, err := r.Read(chunk)
		buf.Write(chunk[:n])
		if bytes.Contains(buf.Bytes(), marker) {
			break
		}
		if err != nil {
			break
		}
	}
	return buf.Bytes()
}
