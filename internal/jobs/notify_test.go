package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"setagree/internal/obs"
)

// isClosed reports whether ch is closed now. The store closes a watch
// channel inside the call that records the change, so no wait is
// needed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestWatchWakesOnTransitionAndWrite: the watch channel closes at the
// job's next transition and at each write through OpenEvents, and at
// nothing else; a terminal job arms no channel.
func TestWatchWakesOnTransitionAndWrite(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Submit("k", nil)
	if err != nil {
		t.Fatal(err)
	}

	snap, ch, err := s.Watch(j.ID)
	if err != nil || snap.State != Pending || ch == nil {
		t.Fatalf("Watch(pending) = %s, %v, %v", snap.State, ch, err)
	}
	if _, err := s.Transition(other.ID, Canceled, ""); err != nil {
		t.Fatal(err)
	}
	if isClosed(ch) {
		t.Fatal("another job's transition woke the watcher")
	}
	if _, ok, err := s.Claim(); !ok || err != nil {
		t.Fatalf("Claim: %v, %v", ok, err)
	}
	if !isClosed(ch) {
		t.Fatal("claim did not wake the watcher")
	}

	snap, ch, err = s.Watch(j.ID)
	if err != nil || snap.State != Running || isClosed(ch) {
		t.Fatalf("re-armed Watch = %s, closed %v, %v", snap.State, isClosed(ch), err)
	}
	ef, err := s.OpenEvents(j.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ef.Sync(); err != nil {
		t.Fatal(err)
	}
	if isClosed(ch) {
		t.Fatal("opening and syncing the events file woke the watcher")
	}
	if _, err := ef.Write([]byte("{\"event\":\"a\"}\n")); err != nil {
		t.Fatal(err)
	}
	if !isClosed(ch) {
		t.Fatal("an events-file write did not wake the watcher")
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}

	// A resumed run's file appends to what is there.
	_, ch, _ = s.Watch(j.ID)
	ef, err = s.OpenEvents(j.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ef.Write([]byte("{\"event\":\"b\"}\n")); err != nil {
		t.Fatal(err)
	}
	ef.Close()
	if !isClosed(ch) {
		t.Fatal("a resumed run's write did not wake the watcher")
	}
	if buf, err := s.ReadEvents(j.ID); err != nil || string(buf) != "{\"event\":\"a\"}\n{\"event\":\"b\"}\n" {
		t.Fatalf("events after resume = %q, %v", buf, err)
	}

	_, ch, _ = s.Watch(j.ID)
	if _, err := s.Transition(j.ID, Done, ""); err != nil {
		t.Fatal(err)
	}
	if !isClosed(ch) {
		t.Fatal("the terminal transition did not wake the watcher")
	}
	if snap, ch, err := s.Watch(j.ID); err != nil || snap.State != Done || ch != nil {
		t.Fatalf("Watch(done) = %s, %v, %v; want a nil channel", snap.State, ch, err)
	}
	if _, _, err := s.Watch("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Watch(unknown) error = %v", err)
	}
}

// TestWatchBroadcast: every watcher of a job wakes on one change.
func TestWatchBroadcast(t *testing.T) {
	t.Parallel()
	const watchers = 32
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	var armed, woke sync.WaitGroup
	armed.Add(watchers)
	woke.Add(watchers)
	for i := 0; i < watchers; i++ {
		go func() {
			defer woke.Done()
			_, ch, err := s.Watch(j.ID)
			armed.Done()
			if err != nil {
				t.Error(err)
				return
			}
			<-ch
		}()
	}
	armed.Wait()
	ef, err := s.OpenEvents(j.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	if _, err := ef.Write([]byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		woke.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not every watcher woke on one write")
	}
}

// TestWatchTailMissesNothing runs the SSE handler's loop — watch, read
// the file, stop at a terminal snapshot — in many goroutines against a
// writer that appends lines and then finishes the job. Every tail must
// end, holding every line: a change between a watcher's snapshot and
// its read must wake it.
func TestWatchTailMissesNothing(t *testing.T) {
	t.Parallel()
	const (
		tails = 8
		lines = 200
	)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Claim(); !ok || err != nil {
		t.Fatalf("Claim: %v, %v", ok, err)
	}
	ef, err := s.OpenEvents(j.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&want, "{\"seq\":%d}\n", i+1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(tails)
	for i := 0; i < tails; i++ {
		go func() {
			defer wg.Done()
			for {
				snap, ch, err := s.Watch(j.ID)
				if err != nil {
					t.Error(err)
					return
				}
				buf, err := os.ReadFile(s.EventsPath(j.ID))
				if err != nil {
					t.Error(err)
					return
				}
				if snap.State.Terminal() {
					if !bytes.Equal(buf, want.Bytes()) {
						t.Errorf("terminal tail read %d bytes, want %d", len(buf), want.Len())
					}
					return
				}
				select {
				case <-ch:
				case <-ctx.Done():
					t.Error("a tail missed a wake-up and hung")
					return
				}
			}
		}()
	}
	for _, line := range bytes.SplitAfter(want.Bytes(), []byte("\n")) {
		if _, err := ef.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Done, ""); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestWatchLeavesNoWaiters: watching finished jobs arms nothing, and a
// running job's channel leaves the store once the job finishes, even
// when its watchers gave up without waiting.
func TestWatchLeavesNoWaiters(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var finished []string
	for i := 0; i < 10; i++ {
		j, err := s.Submit("k", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Transition(j.ID, []State{Done, Failed, Canceled}[i%3], ""); err != nil {
			t.Fatal(err)
		}
		finished = append(finished, j.ID)
	}
	for i := 0; i < 1000; i++ {
		if _, ch, err := s.Watch(finished[i%len(finished)]); err != nil || ch != nil {
			t.Fatalf("Watch(finished) = %v, %v", ch, err)
		}
	}
	if n := waiters(s); n != 0 {
		t.Fatalf("%d waiters after watching only finished jobs", n)
	}

	live, err := s.Submit("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Watch(live.ID) // abandoned, as by a client that disconnects
	}
	if n := waiters(s); n != 1 {
		t.Fatalf("%d waiters for one watched job, want 1", n)
	}
	if _, err := s.Transition(live.ID, Canceled, ""); err != nil {
		t.Fatal(err)
	}
	if n := waiters(s); n != 0 {
		t.Fatalf("%d waiters after the watched job finished", n)
	}
}

func waiters(s *Store) int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return len(s.waiters)
}

// TestPoolLifecycleHistograms: the pool records one queue wait per
// claim and one run and total per terminal attempt, by kind; a drained
// attempt records its queue wait only.
func TestPoolLifecycleHistograms(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	started := make(chan string, 1)
	p := NewPool(s, 1, map[string]Runner{
		"quick": func(ctx context.Context, s *Store, j Job) ([]byte, error) { return []byte(`{}`), nil },
		"block": blockingRunner(started),
	})
	sink := obs.NewSink()
	p.Observe(sink)
	quick, err := p.Submit("quick", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, quick.ID, Done)
	blocked, err := p.Submit("block", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j, _ := s.Get(blocked.ID); j.State != Pending {
		t.Fatalf("drained job is %s, want pending", j.State)
	}

	// The histograms follow the terminal transition waitState saw.
	deadline := time.Now().Add(10 * time.Second)
	for sink.Histogram(TotalMetric+"|quick").Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for name, want := range map[string]int64{
		QueueWaitMetric + "|quick": 1,
		RunMetric + "|quick":       1,
		TotalMetric + "|quick":     1,
		QueueWaitMetric + "|block": 1,
		RunMetric + "|block":       0,
		TotalMetric + "|block":     0,
	} {
		if got := sink.Histogram(name).Count(); got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	run, total := sink.Histogram(RunMetric+"|quick").Sum(), sink.Histogram(TotalMetric+"|quick").Sum()
	if wait := sink.Histogram(QueueWaitMetric + "|quick").Sum(); total != wait+run {
		t.Errorf("total %d ns != queue wait %d + run %d", total, wait, run)
	}
}
