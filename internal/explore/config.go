// Package explore is an exhaustive model checker for protocols in the
// paper's system model: finitely many deterministic processes applying
// operations to linearizable shared objects under every possible
// schedule and every nondeterministic object response.
//
// It mechanizes the proof technique of §4 and §5 (the bivalency
// arguments of [8, 10]): it builds the reachable configuration graph,
// checks safety predicates at every configuration, checks the paper's
// termination properties via strongly-connected-component analysis,
// labels configurations with their valence, and extracts concrete
// witness schedules for every violation — the runs the proofs'
// adversaries construct.
package explore

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// System is a closed protocol instance: one program per process, the
// shared objects, and the processes' input values.
type System struct {
	// Programs holds one program per process (entries may alias).
	Programs []*machine.Program
	// Objects are the shared objects' sequential specifications.
	Objects []spec.Spec
	// Inputs are the per-process proposal values.
	Inputs []value.Value
}

// Procs returns the number of processes.
func (s *System) Procs() int { return len(s.Programs) }

// Config is one configuration: the state of every process and every
// object, plus which processes have taken at least one step (needed by
// the n-DAC Nontriviality property).
type Config struct {
	// Procs are the process states.
	Procs []machine.ProcState
	// Objs are the object states.
	Objs []spec.State
	// SteppedMask has bit i set when process i has taken a step.
	SteppedMask uint64
}

// Key returns the canonical human-readable encoding of the
// configuration. The explorer interns configurations through the
// compact binary AppendKey instead; Key remains for debugging and for
// the invariant tests that cross-check the two encodings.
func (c *Config) Key() string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(c.SteppedMask, 36))
	for _, p := range c.Procs {
		b.WriteByte('/')
		b.WriteString(p.Key())
	}
	for _, o := range c.Objs {
		b.WriteByte('#')
		b.WriteString(o.Key())
	}
	return b.String()
}

// AppendKey appends the canonical compact binary encoding of the
// configuration to dst and returns the extended slice. Two
// configurations of one System are equal iff their encodings are equal:
// the process and object counts are fixed per System and every
// component encoding is self-delimiting, so the concatenation is
// injective. The explorer interns configurations by these bytes in one
// table over an append-only key log (see intern.go), so neither a
// lookup nor an intern allocates per state.
func (c *Config) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, c.SteppedMask)
	for _, p := range c.Procs {
		dst = p.AppendKey(dst)
	}
	for _, o := range c.Objs {
		dst = o.AppendKey(dst)
	}
	return dst
}

// AppendKeyUnder appends the binary key the permuted configuration
// p·c — process i's state moved to slot p.ProcIdx(i) and renamed, the
// stepped mask permuted alongside, object states keyed under p — would
// produce from AppendKey. It implements the spec.Symmetric contract at
// the configuration level and is what orbit canonicalization minimizes
// over. Panics when an object state lacks spec.Symmetric; the explorer
// validates that up front, so this is unreachable past buildGroup.
func (c *Config) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	dst = binary.AppendUvarint(dst, permuteMask(c.SteppedMask, p))
	for j := range c.Procs {
		dst = c.Procs[p.ProcInvIdx(j)].AppendKeyUnder(dst, p)
	}
	for _, o := range c.Objs {
		var ok bool
		dst, ok = spec.AppendStateKeyUnder(dst, o, p)
		if !ok {
			panic(fmt.Sprintf("explore: object state %T does not implement spec.Symmetric", o))
		}
	}
	return dst
}

// Outcome projects the externally visible outcome of the configuration
// for task predicates.
func (c *Config) Outcome(inputs []value.Value) task.Outcome {
	o := task.NewOutcome(inputs)
	for i, p := range c.Procs {
		switch p.Status {
		case machine.StatusDecided:
			o.Decide(i, p.Decision)
		case machine.StatusAborted:
			o.Aborted[i] = true
		}
		o.Stepped[i] = c.SteppedMask&(1<<uint(i)) != 0
	}
	return o
}

// Live reports whether process i is poised to take a step.
func (c *Config) Live(i int) bool {
	return c.Procs[i].Status == machine.StatusPoised
}

// Quiescent reports whether no process can take a step.
func (c *Config) Quiescent() bool {
	for i := range c.Procs {
		if c.Live(i) {
			return false
		}
	}
	return true
}

// MaxProcs is the largest process count the explorer accepts:
// Config.SteppedMask tracks "has taken a step" in a uint64, so a 65th
// process would silently overflow the mask and corrupt the
// Nontriviality/Stepped projection.
const MaxProcs = 64

// initialConfig builds the initial configuration of the system: every
// process started on its input, every object in its initial state.
func initialConfig(sys *System) (*Config, error) {
	n := sys.Procs()
	if n > MaxProcs {
		return nil, fmt.Errorf("explore: %d processes exceed the %d-process bound (SteppedMask is a uint64): %w",
			n, MaxProcs, machine.ErrProgram)
	}
	c := &Config{
		Procs: make([]machine.ProcState, n),
		Objs:  make([]spec.State, len(sys.Objects)),
	}
	for i := 0; i < n; i++ {
		ps, err := machine.Start(sys.Programs[i], i+1, sys.Inputs[i])
		if err != nil {
			return nil, err
		}
		c.Procs[i] = ps
	}
	for j, o := range sys.Objects {
		c.Objs[j] = o.Init()
	}
	return c, nil
}

// Step is one labelled transition of the configuration graph: process
// Proc applied Op to object Obj and received Resp (branch Branch of the
// object's nondeterministic transition relation).
type Step struct {
	// Op is the applied operation.
	Op value.Op
	// Resp is the response the object chose.
	Resp value.Value
	// Proc is the stepping process (0-based).
	Proc int
	// Obj is the object index.
	Obj int
	// Branch is the index into the object's offered transitions.
	Branch int
}

// String renders the step as "p3: PROPOSE_AT(0, 3) on obj0 -> done".
func (s Step) String() string {
	return "p" + strconv.Itoa(s.Proc+1) + ": " + s.Op.String() +
		" on obj" + strconv.Itoa(s.Obj) + " -> " + s.Resp.String()
}

// successor applies one step of process i, branch b, to c. It returns
// the successor configurations for every branch when b < 0, or the
// single chosen branch otherwise.
func successors(sys *System, c *Config, i int) ([]*Config, []Step, error) {
	poise, ok := machine.Poised(sys.Programs[i], c.Procs[i])
	if !ok {
		return nil, nil, nil
	}
	if poise.Obj < 0 || poise.Obj >= len(sys.Objects) {
		return nil, nil, spec.BadOpError("system", poise.Op,
			"object index "+strconv.Itoa(poise.Obj)+" out of range")
	}
	o := sys.Objects[poise.Obj]
	ts, err := o.Step(c.Objs[poise.Obj], poise.Op)
	if err != nil {
		return nil, nil, err
	}
	configs := make([]*Config, 0, len(ts))
	steps := make([]Step, 0, len(ts))
	var slab configSlab
	for b, t := range ts {
		ps, err := machine.Resume(sys.Programs[i], c.Procs[i], t.Resp)
		if err != nil {
			return nil, nil, err
		}
		configs = append(configs, slab.successor(c, i, poise.Obj, ps, t.Next, len(ts)))
		steps = append(steps, Step{
			Proc:   i,
			Obj:    poise.Obj,
			Op:     poise.Op,
			Resp:   t.Resp,
			Branch: b,
		})
	}
	return configs, steps, nil
}

// configSlab carves successor Configs out of shared backing arrays.
// The merge carves every configuration it interns from the graph's
// slab, register files included, so interning allocates nothing of its
// own but the stepped object's state. On the disk store a spilled
// configuration's memory is freed once every configuration carved from
// the same slab is spilled too, so residency grows by at most one slab
// (256 configurations).
type configSlab struct {
	cfgs  []Config
	procs []machine.ProcState
	objs  []spec.State
	regs  []value.Value
}

// successor returns the configuration c reaches when process i steps
// to ps and object obj moves to next (c itself is unchanged), carved
// from the slab; a fresh slab holds size configurations.
func (s *configSlab) successor(c *Config, i, obj int, ps machine.ProcState, next spec.State, size int) *Config {
	np, no := len(c.Procs), len(c.Objs)
	if len(s.cfgs) == 0 {
		s.cfgs = make([]Config, size)
		s.procs = make([]machine.ProcState, size*np)
		s.objs = make([]spec.State, size*no)
	}
	nc := &s.cfgs[0]
	s.cfgs = s.cfgs[1:]
	nc.Procs, s.procs = s.procs[:np:np], s.procs[np:]
	nc.Objs, s.objs = s.objs[:no:no], s.objs[no:]
	nc.SteppedMask = c.SteppedMask | 1<<uint(i)
	copy(nc.Procs, c.Procs)
	copy(nc.Objs, c.Objs)
	nc.Procs[i] = ps
	nc.Objs[obj] = next
	return nc
}

// regFile carves an n-register file from the slab; a fresh array holds
// size of them.
func (s *configSlab) regFile(n, size int) []value.Value {
	if len(s.regs) < n {
		s.regs = make([]value.Value, size*n)
	}
	r := s.regs[:n:n]
	s.regs = s.regs[n:]
	return r
}

// materialize builds the successor of parent that step s leads to, for
// the merge to intern. Spliced expansion keeps only a successor's key
// and step, so the step is re-applied here: the object steps into the
// graph's own transition buffer, whose chosen entry the configuration
// then owns, and the process is replayed into a register file carved
// from the slab. Specs are pure (spec.Spec; TestStepPurity), so the
// re-step offers the branch the worker keyed.
func (g *graph) materialize(parent *Config, s Step) (*Config, error) {
	if g.trans == nil {
		g.trans = make([][]spec.Transition, len(g.sys.Objects))
	}
	ts, err := spec.StepAppend(g.sys.Objects[s.Obj], g.trans[s.Obj][:0], parent.Objs[s.Obj], s.Op)
	if err != nil {
		return nil, err
	}
	g.trans[s.Obj] = ts
	if s.Branch >= len(ts) || ts[s.Branch].Resp != s.Resp {
		return nil, fmt.Errorf("explore: %s is impure: re-applying %s does not offer branch %d again",
			g.sys.Objects[s.Obj].Name(), s, s.Branch)
	}
	next := ts[s.Branch].Next
	// The configuration owns next now: no later step may recycle it.
	ts[s.Branch].Next = nil
	// Slabs grow with the graph: small checks carve little, large ones
	// amortize to ~0 allocations.
	size := min(256, max(16, len(g.configs)/8))
	ps := parent.Procs[s.Proc]
	ps, err = machine.Replay(g.sys.Programs[s.Proc], ps, s.Resp, g.slab.regFile(len(ps.Regs), size))
	if err != nil {
		return nil, err
	}
	return g.slab.successor(parent, s.Proc, s.Obj, ps, next, size), nil
}
