// Out-of-core exploration: the disk-backed configuration store, and the
// edge log both backends share.
//
// With Options.Store set, the explorer keeps the active BFS frontier
// hot in memory while everything only the post-exploration analyses
// need lives in the mmap'd append-only arenas of internal/store: the
// interning table's key log (see intern.go), per-configuration outcome
// metadata, and the edge log. Without it both logs are plain heap
// []byte. Either way the edge log holds every expanded configuration's
// outgoing edges as one record in exactly the delta-encoded section
// format the checkpoint package persists, so a snapshot's edge section
// is served zero-copy from the log's durable prefix, and Reports,
// witnesses, valency labels, DOT output, and event streams are
// byte-identical across backends at any worker count.
//
// What stays resident per configuration on the disk store: the table's
// slot, the BFS tree columns (parent id + Step), the canon column, one
// (nil after spill) *Config pointer, and two offsets, into the Meta
// arena and the edge log. Everything else is decoded on demand through
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
	// meta is the log of outcome records in the Meta arena; metaOff[id]
	// locates config id's. Records are written in id order, so each ends
	// where the next one starts (or at the log's end for the last).
	meta    byteLog
	metaOff []int64
	// Single-threaded intern scratch.
	metaRec []byte
}

// intern adds a fresh configuration under its binary key (the
// canonical orbit key when symmetry is on; the stored configuration
// stays concrete), recording its BFS parent and the group index gi
// that canonicalizes it, and returns the new id. The caller has
// already verified the key is absent and built c (on the symmetry-off
// path, from the graph's slab). The table's ids are insertion
// ordinals, so the new id is also the configuration's index in every
// graph column. On the disk store the outcome metadata record goes to
// the Meta arena too.
func (g *graph) intern(key []byte, c *Config, parent int, via Step, gi int) (int, error) {
	id, err := g.tab.intern(key)
	if err != nil {
		return 0, err
	}
	if d := g.disk; d != nil {
		d.metaRec = appendMeta(d.metaRec[:0], g.sys, c)
		off, err := d.meta.append(d.metaRec)
		if err != nil {
			return 0, err
		}
		d.metaOff = push(d.metaOff, off)
	}
	g.configs = push(g.configs, c)
	g.parent = push(g.parent, parent)
	g.parentE = push(g.parentE, via)
	g.canon = push(g.canon, gi)
	return id, nil
}

// push appends e to a per-configuration column, doubling its capacity
// when full. append grows a large slice by only 1.25x, so a column
// grown one element at a time would allocate about five times its final
// size in all; doubling bounds that by two.
func push[E any](s []E, e E) []E {
	if len(s) == cap(s) {
		s = append(make([]E, 0, max(16, 2*len(s))), s...)
	}
	return append(s, e)
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
	end := d.meta.len()
	if id+1 < len(d.metaOff) {
		end = d.metaOff[id+1]
	}
	var buf []byte
	buf, m.scratch = d.meta.record(d.metaOff[id], end, m.scratch)
	dec := checkpoint.NewDec(buf)
	m.mask = dec.Uvarint()
	for i := 0; i < n; i++ {
		m.status[i] = machine.Status(dec.Byte())
		m.decision[i] = value.Value(dec.Varint())
		m.poised[i] = dec.Int()
	}
	mustDecode(dec, "meta", id)
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

// logEdges appends the edge record of configuration len(g.edgeOff) —
// its edge count, then body, count edges encoded with putEdge — to the
// edge log.
func (g *graph) logEdges(count int, body []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	off, err := g.edgeLog.append(hdr[:putV(hdr[:], 0, int64(count))])
	if err != nil {
		return err
	}
	if _, err := g.edgeLog.append(body); err != nil {
		return err
	}
	g.edgeOff = push(g.edgeOff, off)
	return nil
}

// putEdge writes e at buf[i:] (the caller has reserved recMax bytes)
// and returns the end offset: the target, the step, then the group
// index — the encoding edgeIter.next reads back.
func putEdge(buf []byte, i int, e edge) int {
	i = putV(buf, i, int64(e.to))
	i = putStep(buf, i, e.step)
	return putV(buf, i, int64(e.g))
}

// edgeIter walks one configuration's outgoing edges by decoding its
// edge-log record, in the canonical merge order it was written in. The
// decoder trusts its input — the log holds only the merge's own records
// and records restore validated — and advances an index instead of
// reslicing, so iterators parked in DFS frames cost no pointer writes.
type edgeIter struct {
	rec []byte
	i   int
	rem int // edges not yet decoded
}

// edgeIter returns an iterator over config id's outgoing edges.
// Unexpanded configurations (frontier at an aborted run) have none.
func (g *graph) edgeIter(id int) edgeIter {
	if id >= len(g.edgeOff) {
		return edgeIter{}
	}
	start, end := g.edgeOff[id], g.edgeLog.len()
	if id+1 < len(g.edgeOff) {
		end = g.edgeOff[id+1]
	}
	// Iterators nest (DFS frames), so a straddling record gets a private
	// copy rather than a shared scratch buffer.
	it := edgeIter{}
	it.rec, _ = g.edgeLog.record(start, end, nil)
	rem, i := varintAt(it.rec, 0)
	it.rem, it.i = int(rem), i
	return it
}

// next decodes the next edge into e, or reports false when none are
// left. Decoding in place, rather than returning the edge, spares every
// walk a copy of the struct per edge.
func (it *edgeIter) next(e *edge) bool {
	if it.rem == 0 {
		return false
	}
	it.rem--
	b, i := it.rec, it.i
	var v int64
	v, i = varintAt(b, i)
	e.to = int(v)
	e.step.Op.Method = value.Method(b[i])
	v, i = varintAt(b, i+1)
	e.step.Op.Arg = value.Value(v)
	v, i = varintAt(b, i)
	e.step.Op.Label = int(v)
	v, i = varintAt(b, i)
	e.step.Resp = value.Value(v)
	v, i = varintAt(b, i)
	e.step.Proc = int(v)
	v, i = varintAt(b, i)
	e.step.Obj = int(v)
	v, i = varintAt(b, i)
	e.step.Branch = int(v)
	v, i = varintAt(b, i)
	e.g = int(v)
	it.i = i
	return true
}

// varintAt decodes the signed varint at b[i:], the inverse of putV,
// and returns it with the offset past it. It is small enough to inline.
func varintAt(b []byte, i int) (int64, int) {
	var u uint64
	for s := 0; ; s += 7 {
		c := b[i]
		i++
		u |= uint64(c&0x7f) << s
		if c < 0x80 {
			return int64(u>>1) ^ -int64(u&1), i
		}
	}
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
