package main

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"setagree/internal/cluster"
	"setagree/internal/jobs"
)

// submitJob posts a job of any kind and requires acceptance.
func submitJob(t *testing.T, base, kind string, spec any) jobs.Job {
	t.Helper()
	resp := postJSON(t, base+"/jobs", map[string]any{"kind": kind, "spec": spec})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit %s: %s: %s", kind, resp.Status, body)
	}
	return decodeJob(t, resp)
}

// rawResult fetches a done job's result document verbatim.
func rawResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, buf)
	}
	return buf
}

// TestClusterShardRetryE2E is the cluster acceptance test: the
// Theorem 7.1 sweep (1116 candidates) submitted to a coordinator with
// two worker daemons, one of which is kill -9ed mid-sweep, must finish
// with a merged report byte-identical to the same sweep run on a
// single plain daemon — no lost ranges, no duplicated ranges, and the
// retry visible in the coordinator's /metrics. The baseline runs with
// cross-candidate memoization explicitly DISABLED while the cluster
// runs with it on (the default), so the byte-equality also certifies
// that a memoized sweep losing a worker mid-shard — its memo table
// mid-population, its verdicts partly attributed — retries and merges
// to exactly the plain engine's bytes.
func TestClusterShardRetryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon e2e")
	}

	w1 := startDaemon(t, t.TempDir())
	w2 := startDaemon(t, t.TempDir())
	coord := startDaemon(t, t.TempDir(), "-workers", w1.base+","+w2.base)
	single := startDaemon(t, t.TempDir())

	// Baseline: the same sweep on a plain daemon, in-process, with the
	// memoizer off — the unmemoized engine is the reference bytes.
	memoOff := false
	offSpec := cluster.Thm71()
	offSpec.Memo = &memoOff
	base := submitJob(t, single.base, "sweep", map[string]any{"sweep": offSpec, "shards": 8})
	waitJob(t, single.base, base.ID, jobs.Done, 2*time.Minute)
	want := rawResult(t, single.base, base.ID)
	if !bytes.Contains(want, []byte(`"candidates": 1116`)) {
		t.Fatalf("baseline sweep is not the 1116-candidate Thm 7.1 sweep:\n%.400s", want)
	}

	// Cluster run: memoized (the default), paced so each shard takes
	// long enough to die under.
	spec := map[string]any{"sweep": cluster.Thm71(), "shards": 8, "pace_ms": 5}
	cj := submitJob(t, coord.base, "sweep", spec)
	waitJob(t, coord.base, cj.ID, jobs.Running, 30*time.Second)
	time.Sleep(1 * time.Second) // let shards land on both workers

	resp, err := http.Get(coord.base + "/jobs/" + cj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j := decodeJob(t, resp); j.State.Terminal() {
		t.Fatalf("sweep already %s before the kill; pacing too fast for this host", j.State)
	}
	if err := w1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	w1.cmd.Wait()
	t.Log("killed worker 1 mid-sweep")

	done := waitJob(t, coord.base, cj.ID, jobs.Done, 4*time.Minute)
	if done.Error != "" {
		t.Fatalf("cluster sweep finished with error %q", done.Error)
	}
	got := rawResult(t, coord.base, cj.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("cluster report differs from single-daemon report:\n--- cluster\n%.800s\n--- single\n%.800s", got, want)
	}

	// The worker death must be visible as shard retries in the
	// coordinator's dacd_cluster_* metric families.
	mresp, err := http.Get(coord.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	retried := metricValue(t, metrics, "dacd_cluster_shards_retried_total")
	if retried < 1 {
		t.Errorf("dacd_cluster_shards_retried_total = %d, want >= 1 after a worker death", retried)
	}
	if shards := metricValue(t, metrics, "dacd_cluster_shards_total"); shards != 8 {
		t.Errorf("dacd_cluster_shards_total = %d, want 8 (each shard completed exactly once)", shards)
	}
	if cands := metricValue(t, metrics, "dacd_cluster_candidates_total"); cands != 1116 {
		t.Errorf("dacd_cluster_candidates_total = %d, want 1116", cands)
	}
}

// metricValue extracts an un-labeled counter/gauge value from a
// Prometheus text exposition.
func metricValue(t *testing.T, exposition []byte, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(exposition)
	if m == nil {
		t.Fatalf("metric %s not found in exposition", name)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
