package explore

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the explored configuration graph in Graphviz DOT
// format: one node per configuration (colored by valence when valency
// analysis ran — bivalent gold, 0-valent blue, 1-valent red), one edge
// per transition labelled with the step. Intended for small instances;
// graphs beyond maxNodes are truncated with a warning comment.
func (r *Report) WriteDOT(w io.Writer, maxNodes int) error {
	if r.g == nil {
		return fmt.Errorf("explore: report has no retained graph: %w", ErrNoValency)
	}
	if maxNodes <= 0 {
		maxNodes = 512
	}
	g := r.g
	var b strings.Builder
	b.WriteString("digraph configurations {\n")
	b.WriteString("  rankdir=TB;\n  node [shape=circle, fontsize=10];\n")
	n := len(g.configs)
	if n > maxNodes {
		n = maxNodes
		fmt.Fprintf(&b, "  // truncated to the first %d of %d configurations\n", n, len(g.configs))
	}
	var m metaRec
	for id := 0; id < n; id++ {
		attrs := ""
		if len(g.valence) == len(g.configs) {
			switch {
			case g.valence[id].Bivalent():
				attrs = ", style=filled, fillcolor=gold"
			case g.valence[id]&CanDecide0 != 0:
				attrs = ", style=filled, fillcolor=lightblue"
			case g.valence[id]&CanDecide1 != 0:
				attrs = ", style=filled, fillcolor=lightcoral"
			}
		}
		g.metaAt(id, &m)
		if m.quiescent() {
			attrs += ", shape=doublecircle"
		}
		fmt.Fprintf(&b, "  c%d [label=\"%d\"%s];\n", id, id, attrs)
	}
	for from := 0; from < n; from++ {
		var e edge
		for it := g.edgeIter(from); it.next(&e); {
			if e.to >= n {
				// Truncation dropped the target node; emitting the edge
				// would reference an undeclared (dangling) node id.
				continue
			}
			fmt.Fprintf(&b, "  c%d -> c%d [label=\"%s\", fontsize=8];\n",
				from, e.to, dotEscape(e.step.String()))
		}
	}
	b.WriteString("}\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("explore: write dot: %w", err)
	}
	return nil
}

func dotEscape(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
