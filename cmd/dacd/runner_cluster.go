package main

import (
	"context"
	"encoding/json"
	"fmt"

	"setagree/internal/cluster"
	"setagree/internal/collections"
	"setagree/internal/jobs"
	"setagree/internal/obs"
)

// partition is the coordinator's partitioning knobs a whole-sweep job
// spec carries next to its sweep. The worker list is the daemon's
// -workers flag, not part of the spec — topology is an operator
// decision, and the same submitted job runs in-process on a plain
// daemon and sharded on a coordinator, with byte-identical results.
type partition struct {
	// Shards overrides the shard count (0 = 4 per worker, or 1 local).
	Shards int `json:"shards,omitempty"`
	// PaceMs sleeps each shard this long per candidate — the demo/test
	// knob that makes a sweep long-lived enough to kill a worker under.
	PaceMs int `json:"pace_ms,omitempty"`
}

func (p partition) options(workers []string, sink *obs.Sink, events *obs.Emitter) cluster.Options {
	return cluster.Options{Workers: workers, Shards: p.Shards, PaceMs: p.PaceMs, Obs: sink, Events: events}
}

// sweepJobSpec is the JSON spec of a "sweep" job.
type sweepJobSpec struct {
	Sweep cluster.SweepSpec `json:"sweep"`
	partition
}

// collectionsJobSpec is the JSON spec of a "collections-sweep" job.
type collectionsJobSpec struct {
	Collections cluster.CollectionsSpec `json:"collections"`
	partition
}

// clusterRunners returns the jobs.Runners of the cluster's job kinds:
//   - "sweep" and "collections-sweep" coordinate a partitioned sweep
//     over workers (in-process when the list is empty) and store the
//     canonical merged report;
//   - "sweep-shard" and "collections-shard" are the worker half: the
//     spec is a cluster.ShardJob or cluster.CollectionsShardJob
//     ({"sweep"|"collections":{...},"lo":L,"hi":H}) and the result the
//     shard's report.
//
// None of them checkpoints: verdicts are deterministic and shards are
// sized to re-run cheaply, so a lost worker costs one shard re-check,
// not a resume protocol.
func clusterRunners(reg *obs.Registry, workers []string) map[string]jobs.Runner {
	return map[string]jobs.Runner{
		"sweep": jobRunner(reg, func(ctx context.Context, sp sweepJobSpec, sink *obs.Sink, events *obs.Emitter) (*cluster.SweepReport, error) {
			return cluster.Run(ctx, sp.Sweep, sp.options(workers, sink, events))
		}, (*cluster.SweepReport).Render),
		"collections-sweep": jobRunner(reg, func(ctx context.Context, sp collectionsJobSpec, sink *obs.Sink, events *obs.Emitter) (*collections.Report, error) {
			return cluster.RunCollections(ctx, sp.Collections, sp.options(workers, sink, events))
		}, (*collections.Report).Render),
		"sweep-shard":       jobRunner(reg, cluster.RunShard, indentJSON[*cluster.ShardReport]),
		"collections-shard": jobRunner(reg, cluster.RunCollectionsShard, indentJSON[*collections.RangeReport]),
	}
}

// jobRunner returns the jobs.Runner for a kind whose spec decodes into
// S: open the job's event stream fresh (these jobs re-run from scratch
// on retry, so any stale stream is dropped), attach a registry sink so
// /metrics sees the run while it executes, call, and render the
// result document.
func jobRunner[S, R any](reg *obs.Registry, call func(context.Context, S, *obs.Sink, *obs.Emitter) (R, error), render func(R) ([]byte, error)) jobs.Runner {
	return func(ctx context.Context, store *jobs.Store, job jobs.Job) ([]byte, error) {
		var spec S
		if err := json.Unmarshal(job.Spec, &spec); err != nil {
			return nil, fmt.Errorf("bad spec: %w", err)
		}
		ef, err := store.OpenEvents(job.ID, false)
		if err != nil {
			return nil, err
		}
		defer ef.Close()
		emitter := obs.NewEmitter(ef)
		sink := reg.Attach()
		if sink == nil {
			sink = obs.NewSink()
		}
		defer reg.Release(sink)
		res, err := call(ctx, spec, sink, emitter)
		if err != nil {
			emitter.Sync()
			return nil, err
		}
		if err := emitter.Sync(); err != nil {
			return nil, fmt.Errorf("event stream: %w", err)
		}
		return render(res)
	}
}

// indentJSON renders a shard result document.
func indentJSON[R any](r R) ([]byte, error) { return json.MarshalIndent(r, "", "  ") }
