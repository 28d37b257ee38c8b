package cluster

import (
	"encoding/json"
	"fmt"

	"setagree/internal/enumerate"
	"setagree/internal/value"
)

// ShardSolver is a solving candidate, shapes rendered one per role.
type ShardSolver struct {
	Index  int      `json:"index"`
	Shapes []string `json:"shapes"`
}

// ShardInconclusive is an unsettled candidate.
type ShardInconclusive struct {
	Index  int           `json:"index"`
	Shapes []string      `json:"shapes"`
	Inputs []value.Value `json:"inputs"`
}

// ShardFailure is a refuted candidate with its rendered counterexample.
type ShardFailure struct {
	Index     int           `json:"index"`
	Shapes    []string      `json:"shapes"`
	Inputs    []value.Value `json:"inputs"`
	Violation string        `json:"violation"`
}

// ShardReport is the serializable outcome of one candidate-range
// shard: enumerate.RangeReport with every shape rendered, fit to
// travel as a job result between daemons.
type ShardReport struct {
	Lo                int                 `json:"lo"`
	Hi                int                 `json:"hi"`
	Pruned            int                 `json:"pruned"`
	States            int                 `json:"states"`
	SymmetryFallbacks int                 `json:"symmetry_fallbacks"`
	Solvers           []ShardSolver       `json:"solvers,omitempty"`
	Inconclusive      []ShardInconclusive `json:"inconclusive,omitempty"`
	Failure           *ShardFailure       `json:"failure,omitempty"`
}

func renderShapes(a enumerate.Assignment) []string {
	out := make([]string, len(a.Shapes))
	for i, s := range a.Shapes {
		out[i] = s.String()
	}
	return out
}

// ShardReportOf renders a RangeReport for the wire.
func ShardReportOf(rr *enumerate.RangeReport) *ShardReport {
	sr := &ShardReport{
		Lo:                rr.Lo,
		Hi:                rr.Hi,
		Pruned:            rr.Pruned,
		States:            rr.States,
		SymmetryFallbacks: rr.SymmetryFallbacks,
	}
	for _, s := range rr.Solvers {
		sr.Solvers = append(sr.Solvers, ShardSolver{Index: s.Index, Shapes: renderShapes(s.Assignment)})
	}
	for _, inc := range rr.Inconclusive {
		sr.Inconclusive = append(sr.Inconclusive, ShardInconclusive{
			Index: inc.Index, Shapes: renderShapes(inc.Assignment), Inputs: inc.Inputs,
		})
	}
	if f := rr.Failure; f != nil {
		sr.Failure = &ShardFailure{
			Index: f.Index, Shapes: renderShapes(f.Assignment), Inputs: f.Inputs, Violation: f.Violation,
		}
	}
	return sr
}

// SweepReport is the merged outcome of a partitioned sweep. It is a
// pure function of the sweep spec: no timing, worker identity, or
// shard boundaries appear, so the same spec renders byte-identically
// whether it ran on one daemon or was sharded across a cluster —
// including after shard retries.
type SweepReport struct {
	Candidates        int                 `json:"candidates"`
	Pruned            int                 `json:"pruned"`
	States            int                 `json:"states"`
	SymmetryFallbacks int                 `json:"symmetry_fallbacks"`
	Refuted           bool                `json:"refuted"`
	Solvers           []ShardSolver       `json:"solvers"`
	Inconclusive      []ShardInconclusive `json:"inconclusive"`
	Failure           *ShardFailure       `json:"failure,omitempty"`
}

// Merge folds shard reports into the sweep document. The shards must
// tile [0, candidates) exactly (enumerate.Tile: exact-duplicate ranges
// collapse to one; gaps, overlaps, and ranges running backwards or
// past the sweep are errors), every candidate a shard lists must lie
// in the shard's range, solvers and inconclusive candidates in strictly
// increasing order, and every shard must agree on the sweep-global
// pruned count. Shard reports are bytes from other daemons; Merge
// accepts nothing a real sweep could not have produced. Failure is the
// lowest-indexed refuted candidate across all shards, matching a full
// single sweep.
func Merge(candidates int, shards []*ShardReport) (*SweepReport, error) {
	tiles, err := enumerate.Tile(candidates, shards, func(sh *ShardReport) (int, int) { return sh.Lo, sh.Hi })
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	rep := &SweepReport{
		Candidates:   candidates,
		Solvers:      []ShardSolver{},
		Inconclusive: []ShardInconclusive{},
	}
	for i, sh := range tiles {
		if i == 0 {
			rep.Pruned = sh.Pruned
		} else if sh.Pruned != rep.Pruned {
			return nil, fmt.Errorf("cluster: shard [%d,%d) reports pruned=%d, earlier shards %d — specs differ", sh.Lo, sh.Hi, sh.Pruned, rep.Pruned)
		}
		if !increasing(sh.Lo, sh.Hi, sh.Solvers, func(s ShardSolver) int { return s.Index }) ||
			!increasing(sh.Lo, sh.Hi, sh.Inconclusive, func(s ShardInconclusive) int { return s.Index }) ||
			sh.Failure != nil && (sh.Failure.Index < sh.Lo || sh.Failure.Index >= sh.Hi) {
			return nil, fmt.Errorf("cluster: shard [%d,%d) lists a candidate outside its range or out of order", sh.Lo, sh.Hi)
		}
		rep.States += sh.States
		rep.SymmetryFallbacks += sh.SymmetryFallbacks
		rep.Solvers = append(rep.Solvers, sh.Solvers...)
		rep.Inconclusive = append(rep.Inconclusive, sh.Inconclusive...)
		if sh.Failure != nil && (rep.Failure == nil || sh.Failure.Index < rep.Failure.Index) {
			rep.Failure = sh.Failure
		}
	}
	rep.Refuted = rep.Failure != nil
	return rep, nil
}

// increasing reports whether the candidate indices of items lie in
// [lo, hi) in strictly increasing order — the order CheckRange lists
// them in.
func increasing[T any](lo, hi int, items []T, index func(T) int) bool {
	for _, it := range items {
		i := index(it)
		if i < lo || i >= hi {
			return false
		}
		lo = i + 1
	}
	return true
}

// Render is the canonical byte encoding of the sweep document — the
// bytes the cluster promises are identical to a single-daemon run.
func (r *SweepReport) Render() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
