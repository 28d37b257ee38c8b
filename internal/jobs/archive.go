package jobs

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// ArchivePolicy bounds a long-lived store's hot footprint: finished
// jobs' payloads (events, result, DOT, the submission spec) are
// gzipped into Dir and their hot working directories removed, and the
// JSONL journal is rewritten to one line per job whenever it outgrows
// JournalMax — with archived jobs' specs dropped from the rewrite,
// since the archive carries them. Archival is strictly an eviction:
// every read (ReadResult, ReadEvents, ReadJobFile) transparently falls
// back to the archive, and recovery after kill -9 replays archived
// jobs like any other terminal job.
type ArchivePolicy struct {
	// Dir is the archive root; "" disables payload archival (journal
	// compaction still applies when JournalMax is set).
	Dir string
	// JournalMax compacts the journal when its byte size exceeds this
	// (0 = never compact).
	JournalMax int64
	// MaxAge keeps a finished job hot for this long after its last
	// transition (0 = archive at the first sweep). Keeping recent jobs
	// hot keeps their SSE replay a plain file tail.
	MaxAge time.Duration
}

// ArchiveStats summarizes one Sweep.
type ArchiveStats struct {
	// Archived is the number of jobs moved to the archive this sweep.
	Archived int
	// Compacted reports whether the journal was rewritten.
	Compacted bool
	// JournalBytes and ArchiveBytes are the post-sweep sizes.
	JournalBytes int64
	ArchiveBytes int64
}

// SetArchive installs the archival policy and reconciles on-disk state:
// leftover half-written archive entries (".tmp" directories a crash
// abandoned) are removed, completed archive entries mark their jobs
// archived, and hot directories a crash left behind after archival are
// deleted. Call once after Open, before serving traffic.
func (s *Store) SetArchive(p ArchivePolicy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.archive = p
	if p.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(p.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			// A sweep died mid-copy; the hot directory is still the
			// source of truth.
			if err := os.RemoveAll(filepath.Join(p.Dir, e.Name())); err != nil {
				return err
			}
			continue
		}
		if j, ok := s.jobs[e.Name()]; ok {
			j.Archived = true
			// A sweep died between the archive rename and the hot
			// removal; the archive is complete, so finish the eviction.
			if err := os.RemoveAll(s.jobDir(j.ID)); err != nil {
				return err
			}
		}
	}
	s.archiveBytes = dirBytes(p.Dir)
	return nil
}

// Sweep archives every eligible finished job and compacts the journal
// if it exceeds the policy's bound. Sweep is safe to call concurrently
// with serving (archival copies are made outside the store lock;
// terminal jobs' files are immutable) but callers should serialize
// sweeps with each other — the daemon runs one sweep loop.
func (s *Store) Sweep() (ArchiveStats, error) {
	var stats ArchiveStats
	s.mu.Lock()
	p := s.archive
	var candidates []*Job
	if p.Dir != "" {
		now := time.Now().UTC()
		for _, j := range s.jobs {
			if j.State.Terminal() && !j.Archived && now.Sub(j.Updated) >= p.MaxAge {
				candidates = append(candidates, j)
			}
		}
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a].ID < candidates[b].ID })
	specs := make(map[string][]byte, len(candidates))
	for _, j := range candidates {
		specs[j.ID] = j.Spec
	}
	s.mu.Unlock()

	for _, j := range candidates {
		if err := s.archiveJob(j.ID, specs[j.ID]); err != nil {
			return stats, fmt.Errorf("jobs: archiving %s: %w", j.ID, err)
		}
		s.mu.Lock()
		j.Archived = true
		j.Spec = nil // the archive's spec.json.gz is the copy of record
		err := s.appendLocked(j, false)
		s.mu.Unlock()
		if err != nil {
			return stats, err
		}
		stats.Archived++
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Dir != "" {
		s.archiveBytes = dirBytes(p.Dir)
	}
	if p.JournalMax > 0 {
		if size := s.journalBytesLocked(); size > p.JournalMax {
			if err := s.compactLocked(); err != nil {
				return stats, err
			}
			stats.Compacted = true
		}
	}
	stats.JournalBytes = s.journalBytesLocked()
	stats.ArchiveBytes = s.archiveBytes
	return stats, nil
}

// archiveJob copies one finished job's payloads into the archive:
// every regular file of the hot directory (events.jsonl, result.json,
// graph.dot, ...) gzipped, plus the submission spec, written to a
// ".tmp" staging directory that is atomically renamed into place
// before the hot directory is removed — so a crash at any point leaves
// either the hot copy or a complete archive, never a torn one.
func (s *Store) archiveJob(id string, spec []byte) error {
	dst := filepath.Join(s.archive.Dir, id)
	tmp := dst + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	hot := s.jobDir(id)
	entries, err := os.ReadDir(hot)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, e := range entries {
		// Checkpoints exist to resume interrupted runs; a finished job's
		// checkpoint is dead weight and is dropped, not archived.
		if !e.Type().IsRegular() || e.Name() == "checkpoint.ckpt" {
			continue
		}
		if err := gzipFile(filepath.Join(hot, e.Name()), filepath.Join(tmp, e.Name()+".gz")); err != nil {
			return err
		}
	}
	if len(spec) > 0 {
		if err := gzipBytes(spec, filepath.Join(tmp, "spec.json.gz")); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return os.RemoveAll(hot)
}

func gzipFile(src, dst string) error {
	buf, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return gzipBytes(buf, dst)
}

func gzipBytes(buf []byte, dst string) error {
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compactLocked rewrites the journal to its minimal form — one line
// per job in ID order, specs retained only for unarchived jobs — via
// the temp + fsync + rename discipline, then reopens the append
// handle. Caller holds s.mu.
func (s *Store) compactLocked() error {
	if s.journal == nil {
		return errors.New("jobs: store closed")
	}
	path := filepath.Join(s.dir, "journal.jsonl")
	tmp, err := os.CreateTemp(s.dir, ".journal-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := s.jobs[id]
		rec := *j
		if j.Archived {
			rec.Spec = nil
		}
		buf, err := json.Marshal(&rec)
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(append(buf, '\n')); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The old handle's inode is gone; all future appends go to the
	// compacted file.
	s.journal.Close()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.journal = nil
		return err
	}
	s.journal = f
	return nil
}

// journalBytesLocked returns the journal's current size. Caller holds
// s.mu.
func (s *Store) journalBytesLocked() int64 {
	info, err := os.Stat(filepath.Join(s.dir, "journal.jsonl"))
	if err != nil {
		return 0
	}
	return info.Size()
}

// Sizes returns the journal's byte size and the archive's total byte
// size (as of the last sweep), the bounded-footprint evidence GET
// /jobs reports.
func (s *Store) Sizes() (journalBytes, archiveBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalBytesLocked(), s.archiveBytes
}

// dirBytes sums the regular files under dir (one level of job
// subdirectories).
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// ReadJobFile returns the named payload file of a job, transparently
// decompressing from the archive when the job has been evicted from
// the hot directory.
func (s *Store) ReadJobFile(id, name string) ([]byte, error) {
	if buf, err := os.ReadFile(filepath.Join(s.jobDir(id), name)); err == nil {
		return buf, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	s.mu.Lock()
	dir := s.archive.Dir
	s.mu.Unlock()
	if dir == "" {
		return nil, fmt.Errorf("jobs: %s/%s: %w", id, name, os.ErrNotExist)
	}
	f, err := os.Open(filepath.Join(dir, id, name+".gz"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// ReadEvents returns the job's full JSONL event stream, hot or
// archived.
func (s *Store) ReadEvents(id string) ([]byte, error) {
	return s.ReadJobFile(id, "events.jsonl")
}

// ReadEventsFrom returns the job's event stream from byte offset off
// on, hot or archived, and the offset those bytes start at: off, or 0
// when the stream is shorter than off (a resumed job truncated it). A
// hot stream is read from off alone, so a tail that calls it on every
// new line reads each byte once.
func (s *Store) ReadEventsFrom(id string, off int64) ([]byte, int64, error) {
	f, err := os.Open(s.EventsPath(id))
	if os.IsNotExist(err) {
		buf, err := s.ReadEvents(id)
		if err != nil {
			return nil, off, err
		}
		if int64(len(buf)) < off {
			off = 0
		}
		return buf[off:], off, nil
	}
	if err != nil {
		return nil, off, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, off, err
	}
	if fi.Size() < off {
		off = 0
	}
	buf := make([]byte, fi.Size()-off)
	n, err := f.ReadAt(buf, off)
	if err == io.EOF {
		err = nil // the file shrank since Stat; a later read catches up
	}
	return buf[:n], off, err
}
