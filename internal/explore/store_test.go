package explore_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/obs"
	"setagree/internal/store"
)

// TestDiskStoreReportEquivalence pins the out-of-core contract: a
// disk-backed exploration produces a Report, witness set, valency
// analysis, DOT rendering, and event stream byte-identical to the
// in-memory engine's, at every worker count and symmetry mode. It also
// checks the store actually spilled (the equivalence would be vacuous
// if everything stayed resident) and that Close is idempotent and
// removes the arena files.
func TestDiskStoreReportEquivalence(t *testing.T) {
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
					HeartbeatEvery: 64,
				}

				var memEvents bytes.Buffer
				memOpts := base
				memOpts.Events = obs.NewEmitterAt(&memEvents, fixedClock)
				memRep, err := explore.Check(sys, tsk, memOpts)
				if err != nil {
					t.Fatalf("in-memory Check: %v", err)
				}

				dir := t.TempDir()
				sink := obs.NewSink()
				var diskEvents bytes.Buffer
				diskOpts := base
				diskOpts.Obs = sink
				diskOpts.Events = obs.NewEmitterAt(&diskEvents, fixedClock)
				diskOpts.Store = store.Options{Dir: dir}
				diskRep, err := explore.Check(sys, tsk, diskOpts)
				if err != nil {
					t.Fatalf("disk-backed Check: %v", err)
				}
				sameReport(t, "disk vs memory", diskRep, memRep)
				if !bytes.Equal(diskEvents.Bytes(), memEvents.Bytes()) {
					t.Errorf("disk-backed event stream differs from in-memory run")
				}
				snap := sink.Snapshot()
				if snap.Counters["store.spilled_bytes"] == 0 {
					t.Errorf("store.spilled_bytes = 0: nothing spilled, equivalence is vacuous")
				}
				if snap.Gauges["explore.batch_size"] == 0 {
					t.Errorf("explore.batch_size gauge not recorded")
				}

				if err := diskRep.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if err := diskRep.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Errorf("store dir not empty after Close: %v", ents)
				}
				// Counts survive Close; only graph walks are released.
				if diskRep.States != memRep.States {
					t.Errorf("States after Close = %d, want %d", diskRep.States, memRep.States)
				}
			})
		}
	}
}

// TestDiskStoreCheckpointBytesIdentical requires the disk-backed
// engine's level snapshots to be byte-for-byte the in-memory engine's:
// the Edges arena serves the checkpoint edge section zero-copy, and
// this pins that the arena records really are the checkpoint encoding.
func TestDiskStoreCheckpointBytesIdentical(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	base := explore.Options{Workers: 4, Valency: true}

	snapsOf := func(opts explore.Options) map[int][]byte {
		dir := t.TempDir()
		ckptPath := filepath.Join(dir, "run.ckpt")
		snaps := make(map[int][]byte)
		opts.Checkpoint = explore.CheckpointOptions{
			Path: ckptPath,
			After: func(level int) error {
				buf, err := os.ReadFile(ckptPath)
				if err != nil {
					return err
				}
				snaps[level] = buf
				return nil
			},
		}
		rep, err := explore.Check(sys, tsk, opts)
		if err != nil {
			t.Fatalf("checkpointed Check: %v", err)
		}
		defer rep.Close()
		return snaps
	}

	memSnaps := snapsOf(base)
	diskOpts := base
	diskOpts.Store = store.Options{Dir: t.TempDir()}
	diskSnaps := snapsOf(diskOpts)

	if len(memSnaps) != len(diskSnaps) || len(memSnaps) < 3 {
		t.Fatalf("snapshot counts differ or too shallow: %d vs %d", len(memSnaps), len(diskSnaps))
	}
	for level, want := range memSnaps {
		got, ok := diskSnaps[level]
		if !ok {
			t.Errorf("disk run wrote no level-%d snapshot", level)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("level-%d snapshot differs between disk and memory engines (%d vs %d bytes)",
				level, len(got), len(want))
		}
	}
}

// TestKillResumeDiskStore extends the kill-resume suite to the
// disk-backed engine: every level snapshot of a disk-backed run must
// resume — into a fresh disk store — to a Report and event stream
// byte-identical to the uninterrupted in-memory run's.
func TestKillResumeDiskStore(t *testing.T) {
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
					HeartbeatEvery: 64,
				}

				var refEvents bytes.Buffer
				refOpts := base
				refOpts.Events = obs.NewEmitterAt(&refEvents, fixedClock)
				refRep, err := explore.Check(sys, tsk, refOpts)
				if err != nil {
					t.Fatalf("reference Check: %v", err)
				}

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
				ckOpts.Store = store.Options{Dir: filepath.Join(dir, "store")}
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
					t.Fatalf("checkpointed disk Check: %v", err)
				}
				defer ckRep.Close()
				sameReport(t, "checkpointed disk run", ckRep, refRep)
				if !bytes.Equal(ckEvents.Bytes(), refEvents.Bytes()) {
					t.Fatalf("disk checkpointing perturbed the event stream")
				}
				if len(snaps) < 3 {
					t.Fatalf("only %d level snapshots; instance too shallow", len(snaps))
				}

				for si, sn := range snaps {
					var resEvents bytes.Buffer
					resEvents.Write(ckEvents.Bytes()[:sn.prefix])
					resOpts := base
					resOpts.Events = obs.NewEmitterAt(&resEvents, fixedClock)
					resOpts.Store = store.Options{Dir: filepath.Join(dir, fmt.Sprintf("res%03d", si))}
					rep, err := explore.Resume(sn.file, sys, tsk, resOpts)
					if err != nil {
						t.Fatalf("Resume(%s) into disk store: %v", sn.file, err)
					}
					sameReport(t, filepath.Base(sn.file), rep, refRep)
					if !bytes.Equal(resEvents.Bytes(), refEvents.Bytes()) {
						t.Errorf("%s: resumed event stream differs", filepath.Base(sn.file))
					}
					rep.Close()
				}
			})
		}
	}
}

// TestDiskStoreBudgetExceeded pins the budget contract: a budget no
// real process fits under aborts the exploration at the first level
// barrier with an error wrapping store.ErrBudget, a partial report, a
// terminal event — and, when checkpointing, a resumable snapshot.
func TestDiskStoreBudgetExceeded(t *testing.T) {
	t.Parallel()
	sys, tsk := durableInstance(t)
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.ckpt")
	sink := obs.NewSink()
	rep, err := explore.Check(sys, tsk, explore.Options{
		Workers:    2,
		Obs:        sink,
		Store:      store.Options{Dir: filepath.Join(dir, "store"), Budget: 1},
		Checkpoint: explore.CheckpointOptions{Path: ckptPath},
	})
	if !errors.Is(err, store.ErrBudget) {
		t.Fatalf("Check with 1-byte budget returned %v, want ErrBudget", err)
	}
	if rep == nil || rep.States == 0 {
		t.Fatalf("budget abort returned no partial report: %+v", rep)
	}
	if err := rep.Close(); err != nil {
		t.Fatalf("Close after budget abort: %v", err)
	}
	if sink.Snapshot().Gauges["store.heap_bytes_max"] == 0 {
		t.Errorf("store.heap_bytes_max gauge not recorded")
	}

	// The abort left a snapshot; it resumes (in-memory here) to the
	// uninterrupted verdict.
	refRep, err := explore.Check(sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resRep, err := explore.Resume(ckptPath, sys, tsk, explore.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Resume after budget abort: %v", err)
	}
	sameReport(t, "resume after budget abort", resRep, refRep)
}

// TestDiskStoreChunkStraddle runs the disk-backed engine on minimum-size
// (4 KiB) arena chunks, so many meta and edge records straddle a chunk
// boundary and are decoded from a copy instead of a zero-copy view. The
// Report, DOT output, event stream, and every level snapshot must still
// be byte-identical to the in-memory engine's.
func TestDiskStoreChunkStraddle(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			sys, tsk := durableInstance(t)
			run := func(st store.Options, sink *obs.Sink) (*explore.Report, map[int][]byte, []byte) {
				dir := t.TempDir()
				ckptPath := filepath.Join(dir, "run.ckpt")
				snaps := make(map[int][]byte)
				var events bytes.Buffer
				rep, err := explore.Check(sys, tsk, explore.Options{
					Workers:        workers,
					Valency:        true,
					HeartbeatEvery: 64,
					Obs:            sink,
					Events:         obs.NewEmitterAt(&events, fixedClock),
					Store:          st,
					Checkpoint: explore.CheckpointOptions{
						Path: ckptPath,
						After: func(level int) error {
							buf, err := os.ReadFile(ckptPath)
							snaps[level] = buf
							return err
						},
					},
				})
				if err != nil {
					t.Fatalf("Check: %v", err)
				}
				return rep, snaps, events.Bytes()
			}

			memRep, memSnaps, memEvents := run(store.Options{}, nil)
			sink := obs.NewSink()
			diskRep, diskSnaps, diskEvents := run(store.Options{Dir: t.TempDir(), ChunkBytes: 4096}, sink)
			defer diskRep.Close()

			sameReport(t, "4 KiB chunks vs memory", diskRep, memRep)
			if !bytes.Equal(diskEvents, memEvents) {
				t.Errorf("event stream differs from the in-memory run")
			}
			if len(diskSnaps) != len(memSnaps) || len(memSnaps) < 3 {
				t.Fatalf("snapshot counts differ or too shallow: %d vs %d", len(diskSnaps), len(memSnaps))
			}
			for level, want := range memSnaps {
				if !bytes.Equal(diskSnaps[level], want) {
					t.Errorf("level-%d snapshot differs (%d vs %d bytes)", level, len(diskSnaps[level]), len(want))
				}
			}
			if faults := sink.Snapshot().Counters["store.arena_faults"]; faults == 0 {
				t.Errorf("store.arena_faults = 0: no record straddled a chunk, the copy path went untested")
			}
		})
	}
}
