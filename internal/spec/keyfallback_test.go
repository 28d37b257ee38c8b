package spec_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// plainState implements spec.State but deliberately not spec.Symmetric,
// standing in for a spec without symmetry-reduction support.
type plainState struct{ k string }

func (s plainState) Key() string { return s.k }

func (s plainState) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.k)))
	return append(dst, s.k...)
}

// TestAppendStateKeyFastPath: binary state keys are canonical — equal
// states encode equal, distinct states encode distinct.
func TestAppendStateKeyFastPath(t *testing.T) {
	t.Parallel()
	reg := objects.NewRegister()
	s0 := reg.Init()
	tr, err := reg.Step(s0, value.Write(7))
	if err != nil {
		t.Fatal(err)
	}
	s7 := tr[0].Next
	if bytes.Equal(s0.AppendKey(nil), s7.AppendKey(nil)) {
		t.Fatal("distinct register states share a binary key")
	}
	tr2, err := reg.Step(reg.Init(), value.Write(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s7.AppendKey(nil), tr2[0].Next.AppendKey(nil)) {
		t.Fatal("equal register states got different binary keys")
	}
}

// TestAppendStateKeyUnderFallback: AppendStateKeyUnder reports ok=false
// and leaves dst untouched for non-Symmetric states, and agrees with
// AppendKey under the identity permutation for Symmetric ones.
func TestAppendStateKeyUnderFallback(t *testing.T) {
	t.Parallel()
	dst := []byte("prefix")
	out, ok := spec.AppendStateKeyUnder(dst, plainState{k: "x"}, spec.Perm{})
	if ok {
		t.Fatal("plain state claimed Symmetric support")
	}
	if !bytes.Equal(out, dst) {
		t.Fatalf("dst modified on the failure path: %q", out)
	}
	// objects.NewCounter's state is the one in-tree State that opts out
	// of Symmetric; the explorer's rejection path depends on that.
	cnt := objects.NewCounter().Init()
	if _, ok := spec.AppendStateKeyUnder(nil, cnt, spec.Perm{}); ok {
		t.Fatal("counter state claims Symmetric support; the asymmetric-object rejection tests rely on it not to")
	}
	reg := objects.NewRegister()
	tr, err := reg.Step(reg.Init(), value.Write(9))
	if err != nil {
		t.Fatal(err)
	}
	s := tr[0].Next
	under, ok := spec.AppendStateKeyUnder(nil, s, spec.Perm{})
	if !ok {
		t.Fatal("register state lost Symmetric support")
	}
	if !bytes.Equal(under, s.AppendKey(nil)) {
		t.Fatal("identity permutation changed the key")
	}
}
