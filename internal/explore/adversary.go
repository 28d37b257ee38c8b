package explore

import (
	"errors"
	"fmt"
)

// ErrNoValency reports an adversary request on a report explored
// without Options.Valency.
var ErrNoValency = errors.New("explore: adversarial schedule requires valency analysis")

// AdversaryResult is the outcome of the bivalence-preserving adversary.
type AdversaryResult struct {
	// Schedule is the constructed run prefix (each step moves to a
	// bivalent configuration while one exists).
	Schedule []Step
	// Cycle, when non-empty, is a loop of steps through bivalent
	// configurations: the adversary can keep the protocol bivalent —
	// hence undecided — forever. For protocols with wait-free
	// obligations this cannot happen (it would be a termination
	// violation); for n-DAC protocols it is exactly the weak-termination
	// loophole the paper's objects are built around.
	Cycle []Step
	// CriticalID is the critical configuration the schedule ends at
	// when no cycle exists (every successor univalent), -1 otherwise.
	CriticalID int
}

// KeepsBivalentForever reports whether the adversary found an infinite
// bivalent run.
func (r *AdversaryResult) KeepsBivalentForever() bool { return len(r.Cycle) > 0 }

// Adversary mechanizes the proofs' scheduling adversary (the engine of
// Claims 4.2.5 and 5.2.2): starting from the initial configuration, it
// repeatedly takes any step whose successor is still bivalent. Two
// outcomes are possible on a fully explored graph:
//
//   - the walk revisits a bivalent configuration: the adversary owns an
//     infinite bivalent run (Cycle), or
//   - the walk reaches a configuration with no bivalent successor — a
//     critical configuration, the pivot the impossibility proofs
//     interrogate (CriticalID).
//
// The report must have been produced with Options.Valency set, and the
// initial configuration must be bivalent.
func (r *Report) Adversary() (*AdversaryResult, error) {
	if r.Valency == nil || r.g == nil || len(r.g.valence) == 0 {
		return nil, ErrNoValency
	}
	if r.g.grp != nil {
		// Region paths concatenate quotient edges, whose concrete steps
		// belong to different orbit translates; the spliced schedule
		// would not be a real execution. Re-explore unreduced.
		return nil, fmt.Errorf("explore: the adversary walks the concrete configuration graph; re-explore with SymmetryOff: %w",
			ErrSymmetryUnsupported)
	}
	g := r.g
	if !g.valence[0].Bivalent() {
		return nil, fmt.Errorf("initial configuration is %s: %w", g.valence[0], ErrNoValency)
	}
	res := &AdversaryResult{CriticalID: -1}

	// The bivalent region: configurations reachable from the root
	// through bivalent configurations only. BFS with parent pointers for
	// path reconstruction.
	type crumb struct {
		prev int
		step Step
	}
	region := map[int]crumb{0: {prev: -1}}
	queue := []int{0}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		var e edge
		for it := g.edgeIter(at); it.next(&e); {
			if !g.valence[e.to].Bivalent() {
				continue
			}
			if _, seen := region[e.to]; seen {
				continue
			}
			region[e.to] = crumb{prev: at, step: e.step}
			queue = append(queue, e.to)
		}
	}
	pathTo := func(id int) []Step {
		var rev []Step
		for at := id; region[at].prev >= 0; at = region[at].prev {
			rev = append(rev, region[at].step)
		}
		for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
			rev[l], rev[r] = rev[r], rev[l]
		}
		return rev
	}

	// regionPath finds a step path from one region config to another
	// that stays inside the bivalent region (empty when from == to).
	regionPath := func(from, to int) []Step {
		if from == to {
			return nil
		}
		seen := map[int]crumb{from: {prev: -1}}
		q := []int{from}
		for len(q) > 0 {
			at := q[0]
			q = q[1:]
			var e edge
			for it := g.edgeIter(at); it.next(&e); {
				if _, in := region[e.to]; !in {
					continue
				}
				if _, dup := seen[e.to]; dup {
					continue
				}
				seen[e.to] = crumb{prev: at, step: e.step}
				if e.to == to {
					var rev []Step
					for x := to; seen[x].prev >= 0; x = seen[x].prev {
						rev = append(rev, seen[x].step)
					}
					for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
						rev[l], rev[r] = rev[r], rev[l]
					}
					return rev
				}
				q = append(q, e.to)
			}
		}
		return nil
	}

	// Look for a cycle inside the region with an iterative three-color
	// DFS: a gray-hitting edge closes a bivalent loop.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(region))
	type frame struct {
		at int
		it edgeIter
	}
	frames := []frame{{at: 0, it: g.edgeIter(0)}}
	color[0] = gray
	var e edge
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if f.it.next(&e) {
			if _, in := region[e.to]; !in {
				continue
			}
			switch color[e.to] {
			case gray:
				// Bivalent cycle: e.to -> ... -> f.at -> e.to.
				res.Schedule = pathTo(e.to)
				res.Cycle = append(regionPath(e.to, f.at), e.step)
				return res, nil
			case white:
				color[e.to] = gray
				frames = append(frames, frame{at: e.to, it: g.edgeIter(e.to)})
			}
			continue
		}
		color[f.at] = black
		frames = frames[:len(frames)-1]
	}

	// Acyclic region: find a region config with no bivalent successor —
	// a critical configuration (it exists because the region is finite
	// and acyclic).
	for id := range region {
		critical := true
		var e edge
		for it := g.edgeIter(id); it.next(&e); {
			if g.valence[e.to].Bivalent() {
				critical = false
				break
			}
		}
		if critical {
			res.CriticalID = id
			res.Schedule = pathTo(id)
			return res, nil
		}
	}
	return nil, fmt.Errorf("explore: bivalent region has neither cycle nor critical configuration: %w", ErrNoValency)
}
