package cluster

import (
	"encoding/json"
	"testing"
)

// FuzzMerge holds Merge, the boundary where shard results from other
// daemons become a verdict, to two promises on arbitrary input: it
// never panics, and every report it accepts lists each candidate
// inside [0, candidates) with solvers and inconclusive candidates in
// strictly increasing order. The committed corpus seeds it with a
// backwards shard hiding an out-of-sweep solver and a solver listed by
// two shards.
func FuzzMerge(f *testing.F) {
	f.Add(10, []byte(`[{"lo":0,"hi":5,"solvers":[{"index":1}]},{"lo":5,"hi":10,"failure":{"index":6}}]`))
	f.Fuzz(func(t *testing.T, candidates int, data []byte) {
		var shards []*ShardReport
		if err := json.Unmarshal(data, &shards); err != nil {
			return
		}
		rep, err := Merge(candidates, shards)
		if err != nil {
			return
		}
		// An oracle independent of Merge's own checks: collect every
		// listed index and require range and strict order directly.
		ordered := func(what string, idx []int) {
			for i, x := range idx {
				if x < 0 || x >= candidates || i > 0 && x <= idx[i-1] {
					t.Fatalf("accepted %s %v: out of [0,%d) or order", what, idx, candidates)
				}
			}
		}
		var solvers, inconclusive []int
		for _, s := range rep.Solvers {
			solvers = append(solvers, s.Index)
		}
		for _, s := range rep.Inconclusive {
			inconclusive = append(inconclusive, s.Index)
		}
		ordered("solvers", solvers)
		ordered("inconclusive candidates", inconclusive)
		if rep.Failure != nil {
			ordered("failure", []int{rep.Failure.Index})
		}
	})
}
