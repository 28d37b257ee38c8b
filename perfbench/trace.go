package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program.
// Spans stay in memory until report. A nil *tracer records nothing, so
// untraced runs pay no span cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

// span is one timed call. All spans of one workload iteration (or one
// dacd job) share a trace id; Parent is 0 for a root.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Trace  string             `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`

	t *tracer
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root starts a span with no parent under a fresh trace id.
func (t *tracer) root(name string, seq int) *span {
	if t == nil {
		return nil
	}
	return t.start(fmt.Sprintf("%s-%06d", name, seq), 0, name)
}

func (t *tracer) start(trace string, parent int, name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: int64(time.Since(t.epoch)), t: t}
	t.spans = append(t.spans, s)
	return s
}

// child starts a span under s in s's trace.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.t.start(s.Trace, s.ID, name)
}

// suffix is the part of a root span's name after "iteration", so an
// auxiliary iteration's calls get names of their own.
func (s *span) suffix() string {
	if s == nil {
		return ""
	}
	return strings.TrimPrefix(s.Name, "iteration")
}

// end closes the span, attaching counts taken at its boundary.
func (s *span) end(counts map[string]float64) {
	if s == nil {
		return
	}
	end := int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	s.End = end
	s.Counts = counts
	s.t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children's intervals cover.
func (t *tracer) finish() {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, lo, hi := int64(0), int64(-1), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		s.Self = s.End - s.Start - covered
	}
}

// selfMs returns the median self time, in ms, of the spans named name.
func (t *tracer) selfMs(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(s.Self)/1e6)
		}
	}
	return median(xs)
}

// spanNames are the span names every workload reports self time for
// (0 where the workload records no such span).
var spanNames = []string{
	"iteration", "explore.Check", "Report.Close",
	"enumerate.PrepareDAC", "Prepared.CheckRange",
	"job", "http.submit", "sse.wait", "http.result",
}

// report adds the span self-time metrics and writes the spans to path.
func (t *tracer) report(res *result, path string) error {
	t.finish()
	for _, name := range spanNames {
		res.set("span."+name+".self_ms", t.selfMs(name), "ms")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(struct {
		Spans []*span `json:"spans"`
	}{t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
