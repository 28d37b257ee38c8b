package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"setagree/internal/collections"
	"setagree/internal/obs"
)

// TestRunCollectionsLocalMatchesSweep pins that the cluster pipeline's
// local mode reproduces the collections sweep it wraps, at any shard
// count.
func TestRunCollectionsLocalMatchesSweep(t *testing.T) {
	t.Parallel()
	sp := CollectionsRef()
	full, err := collections.Sweep(sp.Space(), sp.Task(), collections.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := full.Render()
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 3, 6} {
		rep, err := RunCollections(context.Background(), sp, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		buf, err := rep.Render()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fb) {
			t.Errorf("shards=%d: cluster-local report differs from collections.Sweep:\n%s\nvs\n%s", shards, buf, fb)
		}
	}
}

// TestRunCollectionsClusterMatchesLocal pins the coordinated path:
// dispatching collections shards to workers — one of them dead —
// renders byte-identical output to the in-process run.
func TestRunCollectionsClusterMatchesLocal(t *testing.T) {
	t.Parallel()
	sp := CollectionsRef()
	local, err := RunCollections(context.Background(), sp, Options{})
	if err != nil {
		t.Fatal(err)
	}

	w1 := httptest.NewServer(newFakeWorker().handler())
	defer w1.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	sink := obs.NewSink()
	rep, err := RunCollections(context.Background(), sp, Options{
		Workers:     []string{w1.URL, deadURL},
		Shards:      3,
		MaxAttempts: 20,
		Obs:         sink,
	})
	if err != nil {
		t.Fatal(err)
	}

	lb, err := local.Render()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := rep.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, cb) {
		t.Errorf("cluster collections report differs from local run:\n%s\nvs\n%s", cb, lb)
	}
	if got := sink.Counter("cluster.shards").Load(); got != 3 {
		t.Errorf("cluster.shards = %d, want 3", got)
	}
	if sink.Counter("cluster.shards_retried").Load() == 0 {
		t.Error("dead worker produced no retries")
	}
}

// TestCollectionsSpecValidation pins the error surface of bad specs.
func TestCollectionsSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []CollectionsSpec{
		{},
		{Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 0, Procs: 4, K: 2},
		{Menu: []SATypeSpec{{N: 2, K: 0}}, Size: 1, Procs: 4, K: 2},
		{Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 1, Procs: 0, K: 2},
		{Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 1, Procs: 4, K: 0},
		{Menu: []SATypeSpec{{N: 2, K: 1}, {N: 2, K: 1}}, Size: 1, Procs: 4, K: 2},
	}
	for i, sp := range cases {
		if _, err := RunCollections(context.Background(), sp, Options{}); err == nil {
			t.Errorf("case %d: bad collections spec accepted", i)
		}
	}
}
