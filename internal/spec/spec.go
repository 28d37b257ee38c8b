// Package spec defines the sequential-specification framework that every
// shared object in this repository is built on.
//
// The paper gives each object "in terms of a set of states, a set of
// operations, a set of responses, and a state transition relation" (§3,
// §4) and assumes the objects are linearizable [11], so it reasons only
// about sequential histories. We mirror that exactly: a Spec is a pure,
// possibly nondeterministic transition relation over immutable states.
// One Spec drives both execution modes of the repository:
//
//   - the concurrent runtime (Atomic in this package) guards a state with
//     a mutex and resolves nondeterminism with a pluggable Chooser; and
//   - the model checker (internal/explore) branches over every
//     transition a Step offers.
//
// A spec may also implement the optional StepAppend extension (see the
// StepAppend function), which writes its transitions into a
// caller-owned slice and may overwrite the states that slice's spare
// entries hold. The model checker steps through it so that a successor
// it only keys, and never keeps, costs no allocation. The contract:
// StepAppend(dst, s, op) returns what Step(s, op) returns, appended to
// dst; every entry in dst[len(dst):cap(dst)] is dead, so the states
// their Next fields hold may be overwritten and returned; s is never
// mutated, even when a dead entry holds it; and no returned Next
// aliases s or another returned Next, so each entry's state is the
// entry's own to recycle later (Recycle implements the first two rules
// for pointer states). In-tree specs
// implement Step as StepAppend(nil, s, op), so each object has exactly
// one transition function.
package spec

import (
	"errors"
	"fmt"

	"setagree/internal/value"
)

// ErrBadOp is wrapped by Step implementations when an operation is not
// part of the object's interface (wrong method, out-of-range label, or a
// reserved sentinel proposed as an application value, cf. §3 fn. 4).
var ErrBadOp = errors.New("operation not in object interface")

// State is an immutable snapshot of an object's state. Implementations
// must treat states as values: Step never mutates its input state.
type State interface {
	// Key returns a canonical string encoding of the state. Two
	// states of the same Spec are equal if and only if their keys are
	// equal. It serves display (witness traces) and linearizability
	// checking; the model checker hashes AppendKey instead.
	Key() string
	// AppendKey appends a compact binary encoding of the state to dst
	// and returns the extended slice, with the same canonicity contract
	// as Key (two states of the same Spec are equal iff their encodings
	// are equal byte-for-byte). The encoding must be self-delimiting —
	// decodable without knowing where the state's bytes end — because
	// the model checker concatenates the encodings of every process and
	// object state into one configuration key. Length-prefixing
	// variable-size components with binary.AppendUvarint suffices.
	AppendKey(dst []byte) []byte
}

// Transition is one entry of the transition relation: the successor
// state together with the operation's response.
type Transition struct {
	// Next is the successor state.
	Next State
	// Resp is the response returned to the caller.
	Resp value.Value
}

// Spec is a sequential object specification.
type Spec interface {
	// Name identifies the object type, e.g. "3-PAC" or "2-SA".
	Name() string

	// Init returns the object's initial state.
	Init() State

	// Step applies op to state s and returns every possible transition.
	// Deterministic objects return exactly one transition.
	// Nondeterministic objects (the strong set-agreement objects of §4
	// and §6) return one transition per allowed response. Step returns
	// an error wrapping ErrBadOp if op is not part of the object's
	// interface; it never returns an empty transition set otherwise.
	Step(s State, op value.Op) ([]Transition, error)
}

// StepAppend applies op to s like sp.Step and appends the transitions
// to dst, through sp's own StepAppend extension when it has one (see
// the package comment for the contract). Specs without the extension
// take Step's result, which is copied onto dst.
func StepAppend(sp Spec, dst []Transition, s State, op value.Op) ([]Transition, error) {
	if a, ok := sp.(interface {
		StepAppend(dst []Transition, s State, op value.Op) ([]Transition, error)
	}); ok {
		return a.StepAppend(dst, s, op)
	}
	ts, err := sp.Step(s, op)
	if err != nil {
		return nil, err
	}
	return append(dst, ts...), nil
}

// Recycle returns the state a StepAppend implementation fills for the
// next transition it appends to dst: the dead entry's *S when it holds
// one other than the input state s, else a new *S. The caller
// overwrites every field of the returned state.
func Recycle[S any, P interface {
	*S
	State
}](dst []Transition, s State) P {
	if len(dst) < cap(dst) {
		if p, ok := dst[:len(dst)+1][len(dst)].Next.(P); ok && State(p) != s {
			return p
		}
	}
	return new(S)
}

// Deterministic reports whether the spec declares itself deterministic.
// Specs that implement the interface{ Deterministic() bool } extension
// are consulted; all other specs are conservatively treated as
// nondeterministic.
func Deterministic(s Spec) bool {
	d, ok := s.(interface{ Deterministic() bool })
	return ok && d.Deterministic()
}

// ValueOblivious reports whether the spec declares its transition
// relation value-oblivious: for every bijection τ of application values
// that fixes the sentinels, τ commutes with Step — relabeling the
// values in a state and operation relabels the transitions' states and
// responses and changes nothing else. Registers, queues, consensus, and
// set-agreement objects qualify (they store and return proposals
// without inspecting them); objects whose responses encode fixed
// values regardless of the proposals — test-and-set's 0/1 winner flag,
// counters — do not. Specs opt in via the
// interface{ ValueOblivious() bool } extension; all other specs are
// conservatively treated as value-sensitive. The sweep memoizer
// (internal/enumerate) consults this to decide whether two candidates
// related by the 0↔1 value swap have isomorphic executions.
func ValueOblivious(s Spec) bool {
	v, ok := s.(interface{ ValueOblivious() bool })
	return ok && v.ValueOblivious()
}

// BadOpError builds the canonical ErrBadOp-wrapping error for spec
// implementations.
func BadOpError(specName string, op value.Op, reason string) error {
	return fmt.Errorf("%s: %s: %s: %w", specName, op, reason, ErrBadOp)
}

// CheckProposal validates that an application-supplied proposal value is
// not one of the reserved sentinels (§3 footnote 4: "processes do not
// propose the special values ⊥ and NIL"). The object is asked for its
// name only when the check fails, so the success path — every PROPOSE
// the model checker explores — builds no string.
func CheckProposal[S interface{ Name() string }](s S, op value.Op) error {
	if op.Arg.IsSentinel() {
		return BadOpError(s.Name(), op, "sentinel values cannot be proposed")
	}
	return nil
}
