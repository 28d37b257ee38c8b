package cluster

import (
	"context"

	"setagree/internal/collections"
	"setagree/internal/obs"
)

// SATypeSpec names one (n,k)-SA type in a collections spec. N == 0
// means unbounded participation, matching ObjectSpec.
type SATypeSpec struct {
	N int `json:"n,omitempty"`
	K int `json:"k"`
}

// CollectionsSpec is a fully data-driven collections sweep: everything
// a worker needs to rebuild the collection space and the verdict
// question, in JSON. It travels inside "collections-sweep" and
// "collections-shard" job specs.
type CollectionsSpec struct {
	// Menu and Size define the collection space (size-Size multisets
	// over Menu).
	Menu []SATypeSpec `json:"menu"`
	Size int          `json:"size"`
	// Procs and K are the verdict question: can Procs processes solve
	// K-set agreement with the collection?
	Procs int `json:"procs"`
	K     int `json:"k"`
	// Levels is the power-prefix length per row (0 = 4).
	Levels int `json:"levels,omitempty"`
	// Prune toggles dominance pruning. Nil or true leaves it on —
	// pruned and unpruned sweeps produce byte-identical reports, so
	// this is an ablation/benchmarking knob, not a correctness one.
	Prune *bool `json:"prune,omitempty"`
}

// Space rebuilds the collection space the spec describes.
func (sp CollectionsSpec) Space() collections.Space {
	menu := make([]collections.Type, len(sp.Menu))
	for i, t := range sp.Menu {
		menu[i] = collections.Type{N: t.N, K: t.K}
	}
	return collections.Space{Menu: menu, Size: sp.Size}
}

// Task rebuilds the verdict question.
func (sp CollectionsSpec) Task() collections.Task {
	return collections.Task{Procs: sp.Procs, K: sp.K}
}

func (sp CollectionsSpec) sweepOptions() collections.SweepOptions {
	return collections.SweepOptions{
		Levels:       sp.Levels,
		DisablePrune: sp.Prune != nil && !*sp.Prune,
	}
}

// CollectionsRef is the reference collections sweep: all 6 two-type
// multisets over {2-consensus, (3,2)-SA, 2-SA}, asked whether 4
// processes solve 2-set agreement — small enough for tests and the
// bench harness, rich enough to exercise pruning and both verdicts.
func CollectionsRef() CollectionsSpec {
	return CollectionsSpec{
		Menu:  []SATypeSpec{{N: 2, K: 1}, {N: 3, K: 2}, {K: 2}},
		Size:  2,
		Procs: 4,
		K:     2,
	}
}

// CollectionsShardJob is the "collections-shard" job spec a
// coordinator submits to a worker daemon: rebuild the space, decide
// collections [Lo, Hi).
type CollectionsShardJob struct {
	Collections CollectionsSpec `json:"collections"`
	Lo          int             `json:"lo"`
	Hi          int             `json:"hi"`
	// PaceMs sleeps after each collection — the same test knob as
	// ShardJob.PaceMs.
	PaceMs int `json:"pace_ms,omitempty"`
}

// RunCollectionsShard decides one collections shard in-process: the
// worker half of the collections cluster protocol, also used directly
// by dacd's collections-shard runner.
func RunCollectionsShard(ctx context.Context, job CollectionsShardJob, sink *obs.Sink, events *obs.Emitter) (*collections.RangeReport, error) {
	return runShard[collections.RangeReport, collections.Report](ctx, job.Collections, job.Lo, job.Hi, job.PaceMs, sink, events)
}

// RunCollections executes the collections sweep through the cluster
// pipeline (see run) and returns the canonical collections.Report.
func RunCollections(ctx context.Context, sp CollectionsSpec, o Options) (*collections.Report, error) {
	return run[collections.RangeReport, collections.Report](ctx, sp, o)
}

func (sp CollectionsSpec) shardKind() string { return "collections-shard" }

func (sp CollectionsSpec) shardJob(lo, hi, paceMs int) any {
	return CollectionsShardJob{Collections: sp, Lo: lo, Hi: hi, PaceMs: paceMs}
}

func (sp CollectionsSpec) checker() (*rangeChecker[collections.RangeReport], error) {
	space, tsk := sp.Space(), sp.Task()
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := tsk.Validate(); err != nil {
		return nil, err
	}
	eng := collections.NewEngine()
	check := func(ctx context.Context, lo, hi int, pace func(), sink *obs.Sink, events *obs.Emitter) (*collections.RangeReport, error) {
		opts := sp.sweepOptions()
		opts.Engine, opts.Ctx, opts.Obs, opts.Events = eng, ctx, sink, events
		if pace != nil {
			opts.OnProgress = func(collections.Progress) { pace() }
		}
		return collections.CheckRange(space, tsk, lo, hi, opts)
	}
	return &rangeChecker[collections.RangeReport]{candidates: space.Count(), rowWidth: 1, check: check}, nil
}

func (sp CollectionsSpec) progress(rr *collections.RangeReport) int { return rr.Hi - rr.Lo }

func (sp CollectionsSpec) merge(_ int, shards []*collections.RangeReport) (*collections.Report, error) {
	return collections.MergeRanges(sp.Space(), sp.Task(), sp.Levels, shards)
}

func (sp CollectionsSpec) doneFields(rep *collections.Report) obs.Fields {
	return obs.Fields{
		"collections": rep.Collections,
		"pruned":      rep.Pruned,
		"solvable":    rep.Solvable,
	}
}
