package core

import (
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// This file implements Observation 5.1(b) and (c) as reusable adapter
// specs: an (n,m)-PAC object *is* an n-PAC object (under the P-face
// methods) and *is* an m-consensus object (under the C-face method).
// The adapters let an (n,m)-PAC — in particular O_n — be dropped in
// wherever the plain object is expected, which is how Theorem 7.1 uses
// Observation 5.1(b).

// PACFace adapts an (n,m)-PAC spec to the plain n-PAC interface
// (Observation 5.1(b)): PROPOSE_AT and DECIDE are redirected to
// PROPOSE_P and DECIDE_P. The state is the underlying PACM state.
type PACFace struct {
	// Inner is the adapted (n,m)-PAC spec.
	Inner PACM
}

var _ spec.Spec = PACFace{}

// NewPACFace wraps an (n,m)-PAC spec as an n-PAC.
func NewPACFace(inner PACM) PACFace { return PACFace{Inner: inner} }

// Name implements spec.Spec.
func (f PACFace) Name() string {
	return f.Inner.Name() + " as " + NewPAC(f.Inner.N).Name()
}

// Init implements spec.Spec.
func (f PACFace) Init() spec.State { return f.Inner.Init() }

// Deterministic reports that the face is deterministic.
func (PACFace) Deterministic() bool { return true }

// Step implements spec.Spec.
func (f PACFace) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	return f.StepAppend(nil, s, op)
}

// StepAppend implements the spec.StepAppend extension.
func (f PACFace) StepAppend(dst []spec.Transition, s spec.State, op value.Op) ([]spec.Transition, error) {
	switch op.Method {
	case value.MethodProposeAt:
		return f.Inner.StepAppend(dst, s, value.ProposeP(op.Arg, op.Label))
	case value.MethodDecide:
		return f.Inner.StepAppend(dst, s, value.DecideP(op.Label))
	default:
		return nil, spec.BadOpError(f.Name(), op, "n-PAC face supports PROPOSE_AT and DECIDE only")
	}
}

// ConsensusFace adapts an (n,m)-PAC spec to the plain m-consensus
// interface (Observation 5.1(c)): PROPOSE is redirected to PROPOSE_C.
type ConsensusFace struct {
	// Inner is the adapted (n,m)-PAC spec.
	Inner PACM
}

var _ spec.Spec = ConsensusFace{}

// NewConsensusFace wraps an (n,m)-PAC spec as an m-consensus object.
func NewConsensusFace(inner PACM) ConsensusFace { return ConsensusFace{Inner: inner} }

// Name implements spec.Spec.
func (f ConsensusFace) Name() string {
	return f.Inner.Name() + " as " + objects.NewConsensus(f.Inner.M).Name()
}

// Init implements spec.Spec.
func (f ConsensusFace) Init() spec.State { return f.Inner.Init() }

// Deterministic reports that the face is deterministic.
func (ConsensusFace) Deterministic() bool { return true }

// Step implements spec.Spec.
func (f ConsensusFace) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	return f.StepAppend(nil, s, op)
}

// StepAppend implements the spec.StepAppend extension.
func (f ConsensusFace) StepAppend(dst []spec.Transition, s spec.State, op value.Op) ([]spec.Transition, error) {
	if op.Method != value.MethodPropose {
		return nil, spec.BadOpError(f.Name(), op, "consensus face supports PROPOSE only")
	}
	return f.Inner.StepAppend(dst, s, value.ProposeC(op.Arg))
}
