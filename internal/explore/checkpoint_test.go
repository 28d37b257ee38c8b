package explore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"setagree/internal/checkpoint"
	"setagree/internal/explore"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// durableInstance is the pinned kill-resume instance: Algorithm 2 at
// n=4 with a mixed input vector, so the graph has nontrivial depth,
// both decision values, and (for symmetry=ids) a nontrivial group.
func durableInstance(t testing.TB) (*explore.System, task.Task) {
	t.Helper()
	prot := programs.Algorithm2(4, 1)
	sys, err := prot.System([]value.Value{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys, task.DAC{N: 4, P: 0}
}

// fixedClock makes event streams reproducible byte-for-byte across the
// reference, checkpointed, and resumed runs.
func fixedClock() time.Time {
	return time.Date(2026, 1, 2, 3, 4, 5, 678900000, time.UTC)
}

func dotOf(t *testing.T, rep *explore.Report) string {
	t.Helper()
	var b strings.Builder
	if err := rep.WriteDOT(&b, 1<<20); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	return b.String()
}

// sameReport asserts every externally observable artifact of the two
// explorations is identical: counts, violations with witnesses,
// valency analysis, and DOT rendering.
func sameReport(t *testing.T, label string, got, want *explore.Report) {
	t.Helper()
	if got.States != want.States || got.Transitions != want.Transitions || got.Quiescent != want.Quiescent {
		t.Errorf("%s: counts (%d,%d,%d), want (%d,%d,%d)", label,
			got.States, got.Transitions, got.Quiescent,
			want.States, want.Transitions, want.Quiescent)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("%s: violations differ: %v vs %v", label, got.Violations, want.Violations)
	}
	if !reflect.DeepEqual(got.Valency, want.Valency) {
		t.Errorf("%s: valency reports differ: %+v vs %+v", label, got.Valency, want.Valency)
	}
	if gd, wd := dotOf(t, got), dotOf(t, want); gd != wd {
		t.Errorf("%s: DOT output differs (%d vs %d bytes)", label, len(gd), len(wd))
	}
}

// TestKillResumeByteIdentical is the pinned durability suite: for
// every level barrier of the alg2 n=4 exploration, at workers 1 and 4
// and symmetry off and ids, resuming the barrier's snapshot yields a
// Report, witness set, DOT rendering, and event stream byte-identical
// to the uninterrupted run's. The snapshot-writing run itself must
// also be unperturbed.
func TestKillResumeByteIdentical(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
			workers, sym := workers, sym
			t.Run(fmt.Sprintf("workers=%d/symmetry=%s", workers, sym), func(t *testing.T) {
				t.Parallel()
				sys, tsk := durableInstance(t)
				base := explore.Options{
					Workers:        workers,
					Symmetry:       sym,
					Valency:        true,
					HeartbeatEvery: 64, // small enough for several heartbeats
				}

				var refEvents bytes.Buffer
				refOpts := base
				refOpts.Events = obs.NewEmitterAt(&refEvents, fixedClock)
				refRep, err := explore.Check(sys, tsk, refOpts)
				if err != nil {
					t.Fatalf("reference Check: %v", err)
				}

				// Full checkpointed run: copy the snapshot and record the
				// event-stream prefix at every level barrier.
				dir := t.TempDir()
				ckptPath := filepath.Join(dir, "run.ckpt")
				type snap struct {
					file   string
					prefix int
				}
				var snaps []snap
				var ckEvents bytes.Buffer
				ckOpts := base
				ckOpts.Events = obs.NewEmitterAt(&ckEvents, fixedClock)
				ckOpts.Checkpoint = explore.CheckpointOptions{
					Path: ckptPath,
					After: func(level int) error {
						buf, err := os.ReadFile(ckptPath)
						if err != nil {
							return err
						}
						cp := filepath.Join(dir, fmt.Sprintf("level%03d.ckpt", level))
						if err := os.WriteFile(cp, buf, 0o644); err != nil {
							return err
						}
						snaps = append(snaps, snap{cp, ckEvents.Len()})
						return nil
					},
				}
				ckRep, err := explore.Check(sys, tsk, ckOpts)
				if err != nil {
					t.Fatalf("checkpointed Check: %v", err)
				}
				sameReport(t, "checkpointed run", ckRep, refRep)
				if !bytes.Equal(ckEvents.Bytes(), refEvents.Bytes()) {
					t.Fatalf("checkpointing perturbed the event stream")
				}
				if len(snaps) < 3 {
					t.Fatalf("only %d level snapshots; instance too shallow to exercise resume", len(snaps))
				}

				for _, sn := range snaps {
					var resEvents bytes.Buffer
					resEvents.Write(ckEvents.Bytes()[:sn.prefix])
					resOpts := base
					resOpts.Events = obs.NewEmitterAt(&resEvents, fixedClock)
					rep, err := explore.Resume(sn.file, sys, tsk, resOpts)
					if err != nil {
						t.Fatalf("Resume(%s): %v", sn.file, err)
					}
					sameReport(t, filepath.Base(sn.file), rep, refRep)
					if !bytes.Equal(resEvents.Bytes(), refEvents.Bytes()) {
						t.Errorf("%s: resumed event stream differs from uninterrupted run", filepath.Base(sn.file))
					}
				}
			})
		}
	}
}

// errKilled simulates a crash at a level barrier via the After hook.
var errKilled = errors.New("simulated crash")

// TestKillResumeEventsFile exercises the real recovery path end to
// end: events to a file on disk, a hard stop that leaves terminal-event
// lines past the snapshot's sequence number, obs.TruncateEventsFile to
// trim them, and a resumed run appending to the trimmed file — whose
// final content must match the uninterrupted run's byte-for-byte.
func TestKillResumeEventsFile(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	base := explore.Options{Workers: 2, HeartbeatEvery: 64}

	var refEvents bytes.Buffer
	refOpts := base
	refOpts.Events = obs.NewEmitterAt(&refEvents, fixedClock)
	if _, err := explore.Check(sys, tsk, refOpts); err != nil {
		t.Fatalf("reference Check: %v", err)
	}

	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	eventsPath := filepath.Join(dir, "events.jsonl")
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	killOpts := base
	killOpts.Events = obs.NewEmitterAt(ef, fixedClock)
	killOpts.Checkpoint = explore.CheckpointOptions{
		Path: ckptPath,
		After: func(level int) error {
			if level == 3 {
				return errKilled
			}
			return nil
		},
	}
	if _, err := explore.Check(sys, tsk, killOpts); !errors.Is(err, errKilled) {
		t.Fatalf("killed Check returned %v, want errKilled", err)
	}
	if err := killOpts.Events.Sync(); err != nil {
		t.Fatalf("Sync after kill: %v", err)
	}
	ef.Close()

	info, err := explore.PeekCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("PeekCheckpoint: %v", err)
	}
	if info.Level != 3 || info.States == 0 || info.Expanded == 0 {
		t.Fatalf("PeekCheckpoint = %+v, want level 3 with progress", info)
	}
	// The killed run's file carries the explore.error terminal event,
	// which the snapshot does not know about.
	preTrim, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(preTrim, []byte("explore.error")) {
		t.Fatalf("killed run emitted no terminal event")
	}
	if err := obs.TruncateEventsFile(eventsPath, info.EventSeq); err != nil {
		t.Fatalf("TruncateEventsFile: %v", err)
	}

	ef, err = os.OpenFile(eventsPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	resOpts := base
	resOpts.Events = obs.NewEmitterAt(ef, fixedClock)
	if _, err := explore.Resume(ckptPath, sys, tsk, resOpts); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := resOpts.Events.Sync(); err != nil {
		t.Fatalf("Sync after resume: %v", err)
	}
	ef.Close()

	got, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refEvents.Bytes()) {
		t.Errorf("resumed events file differs from uninterrupted stream (%d vs %d bytes)",
			len(got), refEvents.Len())
	}
}

// TestContextCancelWritesFinalCheckpoint pins the cancellation
// contract: a cancelled exploration stops at the next level barrier,
// writes a final snapshot, flushes partial counters, emits exactly one
// terminal event, and returns an error classified by ctx.Err(); the
// snapshot then resumes to the uninterrupted verdict.
func TestContextCancelWritesFinalCheckpoint(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)

	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatalf("reference Check: %v", err)
	}

	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := obs.NewSink()
	var events bytes.Buffer
	rep, err := explore.Check(sys, tsk, explore.Options{
		Workers: 2,
		Ctx:     ctx,
		Obs:     sink,
		Events:  obs.NewEmitterAt(&events, fixedClock),
		Checkpoint: explore.CheckpointOptions{
			Path:        ckptPath,
			EveryLevels: 1 << 20, // periodic snapshots off: only the cancellation snapshot
			After: func(level int) error {
				t.Fatalf("periodic snapshot at level %d despite EveryLevels", level)
				return nil
			},
		},
	})
	_ = rep
	// Not cancelled yet: EveryLevels larger than the level count means
	// the run completes without snapshots. Re-run with a hook-triggered
	// cancel to stop mid-exploration.
	if err != nil {
		t.Fatalf("uncancelled run failed: %v", err)
	}
	if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot written despite EveryLevels gate: %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	events.Reset()
	rep, err = explore.Check(sys, tsk, explore.Options{
		Workers: 2,
		Ctx:     ctx,
		Obs:     sink,
		Events:  obs.NewEmitterAt(&events, fixedClock),
		Checkpoint: explore.CheckpointOptions{
			Path: ckptPath,
			After: func(level int) error {
				if level == 2 {
					cancel()
				}
				return nil
			},
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Check returned %v, want context.Canceled", err)
	}
	if rep == nil || rep.States == 0 {
		t.Fatalf("cancelled Check returned no partial report: %+v", rep)
	}
	if n := bytes.Count(events.Bytes(), []byte(`"event":"explore.error"`)); n != 1 {
		t.Fatalf("cancelled run emitted %d terminal explore.error events, want 1:\n%s", n, events.Bytes())
	}
	if snap := sink.Snapshot(); snap.Counters["explore.errors"] != 1 {
		t.Fatalf("explore.errors counter = %d, want 1", snap.Counters["explore.errors"])
	}

	resRep, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Resume after cancel: %v", err)
	}
	sameReport(t, "resume after cancel", resRep, refRep)
}

// TestResumeRejections pins every refusal class of explore.Resume: a
// snapshot from different inputs or a different symmetry mode
// (fingerprint), damaged or truncated bytes, a foreign magic number, a
// future payload version, and a wrong kind. Each rejected resume still
// honours the terminal-event contract.
func TestResumeRejections(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	killedAtLevel2(t, ckptPath, explore.Options{Workers: 2})
	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, buf []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Fingerprint: same protocol, different inputs.
	otherSys, err := programs.Algorithm2(4, 1).System([]value.Value{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	resOpts := explore.Options{Workers: 2, Events: obs.NewEmitterAt(&events, fixedClock)}
	if _, err := explore.Resume(ckptPath, otherSys, tsk, resOpts); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Errorf("resume with different inputs: %v, want ErrFingerprint", err)
	}
	if n := bytes.Count(events.Bytes(), []byte(`"event":"explore.error"`)); n != 1 {
		t.Errorf("rejected resume emitted %d terminal events, want 1", n)
	}

	// Fingerprint: same system, different symmetry mode.
	if _, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Symmetry: explore.SymmetryIDs}); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Errorf("resume with different symmetry: %v, want ErrFingerprint", err)
	}

	// Damage classes on the container.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := explore.Resume(write("flip.ckpt", flipped), sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("bit-flipped snapshot: %v, want ErrCorrupt", err)
	}
	if _, err := explore.Resume(write("trunc.ckpt", raw[:len(raw)/2]), sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("truncated snapshot: %v, want ErrCorrupt", err)
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := explore.Resume(write("magic.ckpt", bad), sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Errorf("bad magic: %v, want ErrBadMagic", err)
	}

	// Version skew and wrong kind, via hand-written containers.
	h, err := checkpoint.Peek(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	skew := filepath.Join(dir, "skew.ckpt")
	if err := checkpoint.Write(skew, checkpoint.Header{Kind: h.Kind, Version: h.Version + 1, Fingerprint: h.Fingerprint}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := explore.Resume(skew, sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrVersion) {
		t.Errorf("version skew: %v, want ErrVersion", err)
	}
	foreign := filepath.Join(dir, "foreign.ckpt")
	if err := checkpoint.Write(foreign, checkpoint.Header{Kind: "jobs.journal", Version: 1, Fingerprint: h.Fingerprint}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := explore.Resume(foreign, sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrKind) {
		t.Errorf("foreign kind: %v, want ErrKind", err)
	}

	// CRC-valid snapshots whose edge steps index past the system: the
	// graph walks index by Proc (liveness, symmetry lifting) and the
	// edge log trusts its records, so restore must reject them.
	_, payload := readSnapshot(t, ckptPath)
	objs := len(sys.Objects)
	for _, tc := range []struct {
		name string
		mut  func(*explore.Step)
	}{
		{"proc 60", func(s *explore.Step) { s.Proc = 60 }},
		{"proc -1", func(s *explore.Step) { s.Proc = -1 }},
		{"obj past objects", func(s *explore.Step) { s.Obj = objs }},
		{"obj -1", func(s *explore.Step) { s.Obj = -1 }},
		{"branch -1", func(s *explore.Step) { s.Branch = -1 }},
	} {
		p := filepath.Join(dir, "edge.ckpt")
		if err := checkpoint.Write(p, h, rewriteFirstEdge(t, payload, tc.mut)); err != nil {
			t.Fatal(err)
		}
		if _, err := explore.Resume(p, sys, tsk, explore.Options{}); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("self-loop edge with %s: %v, want ErrCorrupt", tc.name, err)
		}
	}

	// A rejected snapshot must also fail PeekCheckpoint cleanly.
	if _, err := explore.PeekCheckpoint(write("peek.ckpt", flipped)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("PeekCheckpoint on damage: %v, want ErrCorrupt", err)
	}

	// And the undamaged snapshot still resumes to the right verdict.
	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resRep, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Resume of intact snapshot: %v", err)
	}
	sameReport(t, "intact resume", resRep, refRep)
}

// readSnapshot returns the header and payload of the snapshot at path.
func readSnapshot(t testing.TB, path string) (checkpoint.Header, []byte) {
	t.Helper()
	h, payload, err := checkpoint.ReadUnverified(path, "explore.bfs", 1)
	if err != nil {
		t.Fatal(err)
	}
	return h, payload
}

// rewriteFirstEdge returns payload with config 0's first edge turned
// into a self-loop whose step is the original one edited by mut. It
// walks the payload layout: the counters, the spanning tree, then the
// edge lists.
func rewriteFirstEdge(t *testing.T, payload []byte, mut func(*explore.Step)) []byte {
	t.Helper()
	d := checkpoint.NewDec(payload)
	d.Byte() // symmetry mode
	for range 9 {
		d.Int() // group order through orbitMax
	}
	d.Varint() // event sequence
	configs := d.Int()
	step := func() (s explore.Step) {
		s.Op.Method = value.Method(d.Byte())
		s.Op.Arg = value.Value(d.Varint())
		s.Op.Label = d.Int()
		s.Resp = value.Value(d.Varint())
		s.Proc, s.Obj, s.Branch = d.Int(), d.Int(), d.Int()
		return s
	}
	for range configs - 1 {
		d.Int() // parent
		step()
	}
	if d.Int() < 1 {
		t.Fatal("root has no edges")
	}
	start := len(payload) - d.Len()
	d.Int() // target
	s := step()
	d.Int() // group index
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	end := len(payload) - d.Len()
	mut(&s)
	e := checkpoint.Enc{Buf: append([]byte(nil), payload[:start]...)}
	e.Int(0)
	e.Byte(byte(s.Op.Method))
	e.Varint(int64(s.Op.Arg))
	e.Int(s.Op.Label)
	e.Varint(int64(s.Resp))
	e.Int(s.Proc)
	e.Int(s.Obj)
	e.Int(s.Branch)
	e.Int(0)
	return append(e.Buf, payload[end:]...)
}

// goldenSnapshot is durableInstance's snapshot at its level-2 barrier
// (Workers 1, no events), written by an earlier build of this package.
// It pins the snapshot format across commits, not only across backends
// within one, and seeds FuzzResume.
const goldenSnapshot = "testdata/alg2-n4-level2.ckpt"

// killedAtLevel2 runs durableInstance with snapshots into path until
// the level-2 barrier's After hook stops it.
func killedAtLevel2(t *testing.T, path string, opts explore.Options) {
	t.Helper()
	sys, tsk := durableInstance(t)
	opts.Checkpoint = explore.CheckpointOptions{
		Path: path,
		After: func(level int) error {
			if level == 2 {
				return errKilled
			}
			return nil
		},
	}
	rep, err := explore.Check(sys, tsk, opts)
	if !errors.Is(err, errKilled) {
		t.Fatalf("killed Check returned %v", err)
	}
	rep.Close()
}

// TestGoldenSnapshot: on both backends, Check writes the golden
// snapshot's bytes at the same barrier, and resuming the golden file
// reproduces the uninterrupted run.
func TestGoldenSnapshot(t *testing.T) {
	t.Parallel()
	golden, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	sys, tsk := durableInstance(t)
	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 1, Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%t", disk), func(t *testing.T) {
			opts := explore.Options{Workers: 1, Valency: true}
			if disk {
				opts.Store = store.Options{Dir: t.TempDir()}
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			killedAtLevel2(t, path, opts)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("level-2 snapshot differs from %s (%d vs %d bytes)", goldenSnapshot, len(got), len(golden))
			}
			rep, err := explore.Resume(goldenSnapshot, sys, tsk, opts)
			if err != nil {
				t.Fatalf("Resume(%s): %v", goldenSnapshot, err)
			}
			defer rep.Close()
			sameReport(t, "golden resume", rep, refRep)
		})
	}
}

// FuzzResume holds Resume to never panicking on an arbitrary payload,
// and to returning only typed errors. Each input is rewrapped in a
// valid container under the golden snapshot's header, so the CRC does
// not shield the section decoders. Successful resumes also run the
// graph walks that read restored edges: valency, DOT, the adversary.
func FuzzResume(f *testing.F) {
	h, payload := readSnapshot(f, goldenSnapshot)
	f.Add(payload)
	sys, tsk := durableInstance(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := checkpoint.Write(path, h, payload); err != nil {
			t.Fatal(err)
		}
		rep, err := explore.Resume(path, sys, tsk, explore.Options{Workers: 1, Valency: true})
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("untyped Resume error: %v", err)
			}
			return
		}
		if err := rep.WriteDOT(io.Discard, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Adversary(); err != nil && !errors.Is(err, explore.ErrNoValency) {
			t.Fatalf("untyped Adversary error: %v", err)
		}
	})
}

// TestResumeAcrossWorkerCounts checks a snapshot written at one worker
// count resumes at another — determinism holds because worker count is
// excluded from the fingerprint by design.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	opts := explore.Options{
		Workers: 4,
		Checkpoint: explore.CheckpointOptions{
			Path: ckptPath,
			After: func(level int) error {
				if level == 4 {
					return errKilled
				}
				return nil
			},
		},
	}
	if _, err := explore.Check(sys, tsk, opts); !errors.Is(err, errKilled) {
		t.Fatalf("killed Check returned %v", err)
	}
	resRep, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Workers: 1})
	if err != nil {
		t.Fatalf("Resume at workers=1 of a workers=4 snapshot: %v", err)
	}
	sameReport(t, "cross-worker resume", resRep, refRep)
}
