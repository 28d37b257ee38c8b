// Out-of-core exploration: the disk-backed configuration store.
//
// With Options.Store set, the explorer keeps the active BFS frontier
// hot in memory while everything only the post-exploration analyses
// need — the interning table, per-configuration outcome metadata, and
// the encoded edge lists of completed levels — lives in the mmap'd
// append-only arenas of internal/store. Spilled state is written in
// exactly the delta-encoded section format the checkpoint package
// persists, so a snapshot's edge section is served zero-copy from the
// arena's committed prefix, and the completed run's Report, witnesses,
// valency labels, DOT output, and event stream stay byte-identical to
// the in-memory engine at any worker count.
//
// What stays resident per configuration: the BFS tree columns (parent
// id + Step), the canon column, one (nil after spill) *Config pointer,
// and two arena offsets. Everything else is decoded on demand through
// metaAt/edgeIter below.
package explore

import (
	"encoding/binary"
	"fmt"

	"setagree/internal/checkpoint"
	"setagree/internal/machine"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// diskState is the explorer's view of an open configuration store.
type diskState struct {
	s *store.Store
	// metaOff[id] and edgeOff[id] locate config id's outcome record in
	// the Meta arena and its encoded edge list in the Edges arena; both
	// are written in id order, so each record ends where the next one
	// starts (or at the arena's Len for the last).
	metaOff []int64
	edgeOff []int64
	// edgeDurable is the Edges-arena prefix covered by completed level
	// barriers. Snapshots serialize exactly this prefix; the merge of a
	// partially-failed level may append beyond it, and those bytes never
	// enter a snapshot.
	edgeDurable int64
	// Single-threaded merge/intern scratch.
	edgeRec []byte
	metaRec []byte
}

// lookup probes the interning table for a configuration key.
func (g *graph) lookup(key []byte) (int, bool) {
	if g.disk != nil {
		return g.disk.s.Lookup(key)
	}
	id, ok := g.ids[string(key)]
	return id, ok
}

// intern adds a fresh configuration under its binary key (the
// canonical orbit key when symmetry is on; the stored configuration
// stays concrete), recording its BFS parent and the group index gi
// that canonicalizes it, and returns the new id. The caller has
// already verified the key is absent and built c (on the symmetry-off
// path, from the graph's slab). In-memory the string conversion here
// is the single per-state key allocation; on the disk store the key
// and the outcome metadata record go to the arenas instead.
func (g *graph) intern(key []byte, c *Config, parent int, via Step, gi int) (int, error) {
	id := len(g.configs)
	if d := g.disk; d != nil {
		sid, err := d.s.Intern(key)
		if err != nil {
			return 0, err
		}
		if sid != id {
			return 0, fmt.Errorf("explore: internal: store assigned id %d to configuration %d", sid, id)
		}
		d.metaRec = appendMeta(d.metaRec[:0], g.sys, c)
		off, err := d.s.Meta.Append(d.metaRec)
		if err != nil {
			return 0, err
		}
		d.metaOff = append(d.metaOff, off)
	} else {
		g.ids[string(key)] = id
		g.edges = append(g.edges, nil)
	}
	g.configs = append(g.configs, c)
	g.parent = append(g.parent, parent)
	g.parentE = append(g.parentE, via)
	g.canon = append(g.canon, gi)
	return id, nil
}

// spillExpanded drops the resident *Config of every configuration in
// [start, end) — they have been expanded, and every later read goes
// through the meta arena (or tree replay, for the rare witness-time
// configAt). The root (id 0) always stays resident: the snapshot
// fingerprint and the symmetry root-stability check key it directly.
func (g *graph) spillExpanded(start, end int) {
	if g.disk == nil {
		return
	}
	if start < 1 {
		start = 1
	}
	for id := start; id < end; id++ {
		g.configs[id] = nil
	}
}

// configAt returns the concrete configuration with the given id,
// replaying the BFS tree from the nearest resident ancestor when it
// was spilled. Replay is witness-extraction machinery (stabilizer
// checks), never the hot path.
func (g *graph) configAt(id int) *Config {
	if c := g.configs[id]; c != nil {
		return c
	}
	var chain []int
	at := id
	for g.configs[at] == nil {
		chain = append(chain, at)
		at = g.parent[at]
	}
	c := g.configs[at]
	for k := len(chain) - 1; k >= 0; k-- {
		s := g.parentE[chain[k]]
		nexts, steps, err := successors(g.sys, c, s.Proc)
		if err != nil || s.Branch < 0 || s.Branch >= len(nexts) || steps[s.Branch] != s {
			// The same replay succeeded when the configuration was first
			// interned (or restored), so failure here is memory corruption,
			// not an input error.
			panic(fmt.Sprintf("explore: internal: spilled configuration %d does not replay", chain[k]))
		}
		c = nexts[s.Branch]
	}
	return c
}

// metaRec is the decoded per-configuration outcome record: everything
// the safety, liveness, valency, and DOT passes read from a
// configuration, without the configuration.
type metaRec struct {
	mask     uint64
	status   []machine.Status
	decision []value.Value
	poised   []int  // object index process i is poised on, -1 when none
	scratch  []byte // copy of a chunk-straddling arena record
}

// appendMeta encodes c's outcome record: mask uvarint, then per
// process a status byte, decision varint, and poised-object varint.
func appendMeta(dst []byte, sys *System, c *Config) []byte {
	dst = binary.AppendUvarint(dst, c.SteppedMask)
	for i := range c.Procs {
		dst = append(dst, byte(c.Procs[i].Status))
		dst = binary.AppendVarint(dst, int64(c.Procs[i].Decision))
		obj := -1
		if poise, ok := machine.Poised(sys.Programs[i], c.Procs[i]); ok {
			obj = poise.Obj
		}
		dst = binary.AppendVarint(dst, int64(obj))
	}
	return dst
}

// metaAt fills m with config id's outcome record, decoding it from the
// meta arena when the configuration was spilled. m's slices are reused
// across calls; callers keep one metaRec per scan.
func (g *graph) metaAt(id int, m *metaRec) {
	n := g.sys.Procs()
	if len(m.status) != n {
		m.status = make([]machine.Status, n)
		m.decision = make([]value.Value, n)
		m.poised = make([]int, n)
	}
	if c := g.configs[id]; c != nil {
		m.mask = c.SteppedMask
		for i := range c.Procs {
			m.status[i] = c.Procs[i].Status
			m.decision[i] = c.Procs[i].Decision
			m.poised[i] = -1
			if poise, ok := machine.Poised(g.sys.Programs[i], c.Procs[i]); ok {
				m.poised[i] = poise.Obj
			}
		}
		return
	}
	d := g.disk
	end := d.s.Meta.Len()
	if id+1 < len(d.metaOff) {
		end = d.metaOff[id+1]
	}
	var buf []byte
	buf, m.scratch = arenaRecord(d.s.Meta, d.metaOff[id], end, m.scratch)
	dec := checkpoint.NewDec(buf)
	m.mask = dec.Uvarint()
	for i := 0; i < n; i++ {
		m.status[i] = machine.Status(dec.Byte())
		m.decision[i] = value.Value(dec.Varint())
		m.poised[i] = dec.Int()
	}
	mustDecode(dec, "meta", id)
}

// arenaRecord returns the arena bytes [start, end): a zero-copy view
// when the record lies in one chunk, otherwise a copy in scratch
// (returned for reuse; nil scratch allocates a private copy).
func arenaRecord(a *store.Arena, start, end int64, scratch []byte) (rec, buf []byte) {
	if v, ok := a.View(start, end); ok {
		return v, scratch
	}
	buf = a.AppendRange(scratch[:0], start, end)
	return buf, buf
}

// mustDecode panics when an arena record failed to decode. The records
// are the explorer's own write-once bytes, so a malformed one is memory
// corruption, never an input error.
func mustDecode(dec *checkpoint.Dec, what string, id int) {
	if dec.Err() != nil {
		panic(fmt.Sprintf("explore: internal: %s record of configuration %d: %v", what, id, dec.Err()))
	}
}

// live reports whether process i is poised to take a step.
func (m *metaRec) live(i int) bool { return m.status[i] == machine.StatusPoised }

// quiescent reports whether no process can take a step.
func (m *metaRec) quiescent() bool {
	for _, s := range m.status {
		if s == machine.StatusPoised {
			return false
		}
	}
	return true
}

// fillOutcome projects the record onto o for task predicates — the
// twin of Config.Outcome, writing every per-process entry of an
// Outcome the caller allocated once (task.NewOutcome) per scan.
func (m *metaRec) fillOutcome(o *task.Outcome) {
	for i := range m.status {
		o.Decided[i] = m.status[i] == machine.StatusDecided
		o.Decisions[i] = value.None
		if o.Decided[i] {
			o.Decisions[i] = m.decision[i]
		}
		o.Aborted[i] = m.status[i] == machine.StatusAborted
		o.Stepped[i] = m.mask&(1<<uint(i)) != 0
	}
}

// appendV and appendStep are the append-style twins of the checkpoint
// encoder's putV/putStep, producing byte-identical records — which is
// what lets a snapshot serve its edge section straight from the arena.
func appendV(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

func appendStep(dst []byte, s Step) []byte {
	dst = append(dst, byte(s.Op.Method))
	dst = appendV(dst, int64(s.Op.Arg))
	dst = appendV(dst, int64(s.Op.Label))
	dst = appendV(dst, int64(s.Resp))
	dst = appendV(dst, int64(s.Proc))
	dst = appendV(dst, int64(s.Obj))
	dst = appendV(dst, int64(s.Branch))
	return dst
}

// edgeIter walks one configuration's outgoing edges, from the
// in-memory adjacency list or by decoding the configuration's edge
// record in the Edges arena. Iteration order is identical in both
// modes: the canonical merge order the record was written in.
type edgeIter struct {
	es  []edge // in-memory mode
	i   int
	rem int // remaining records in disk mode; -1 flags in-memory mode
	id  int
	dec checkpoint.Dec
}

// edgeIter returns an iterator over config id's outgoing edges.
// Unexpanded configurations (frontier at an aborted run) have none.
func (g *graph) edgeIter(id int) edgeIter {
	d := g.disk
	if d == nil {
		if id >= len(g.edges) {
			return edgeIter{rem: 0}
		}
		return edgeIter{es: g.edges[id], rem: -1}
	}
	if id >= len(d.edgeOff) {
		return edgeIter{rem: 0}
	}
	end := d.s.Edges.Len()
	if id+1 < len(d.edgeOff) {
		end = d.edgeOff[id+1]
	}
	// Iterators nest (DFS frames), so a straddling record gets a
	// private copy rather than a shared scratch buffer.
	rec, _ := arenaRecord(d.s.Edges, d.edgeOff[id], end, nil)
	it := edgeIter{id: id, dec: *checkpoint.NewDec(rec)}
	it.rem = it.dec.Int()
	mustDecode(&it.dec, "edge", id)
	return it
}

func (it *edgeIter) next() (edge, bool) {
	if it.rem < 0 {
		if it.i >= len(it.es) {
			return edge{}, false
		}
		e := it.es[it.i]
		it.i++
		return e, true
	}
	if it.rem == 0 {
		return edge{}, false
	}
	it.rem--
	var e edge
	e.to = it.dec.Int()
	e.step = decodeStep(&it.dec)
	e.g = it.dec.Int()
	mustDecode(&it.dec, "edge", it.id)
	return e, true
}

// Close releases the report's disk-backed configuration store,
// unmapping and removing its arena files. It is a no-op (and nil-safe)
// for in-memory explorations, and idempotent. After Close the report's
// counts, violations, and valency summary remain valid, but the graph
// walks — WriteDOT, Adversary — must not be called.
func (r *Report) Close() error {
	if r == nil || r.g == nil || r.g.disk == nil {
		return nil
	}
	d := r.g.disk
	r.g.disk = nil
	return d.s.Close()
}
