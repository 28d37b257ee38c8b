package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"setagree/internal/obs"
)

// TestMetricsRunReport checks the -metrics flag writes a valid
// obs.RunReport containing the acceptance-criteria minimum: states,
// transitions, wall-clock duration, and throughput rates. It does not
// run in parallel: machine.steps is a process-wide tally, and another
// test's explorations would add to it.
func TestMetricsRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	code, out, errOut := runCLI(t, "-protocol", "alg2", "-n", "3", "-p", "1", "-metrics", path)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := obs.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "explore" {
		t.Errorf("tool = %q, want explore", rep.Tool)
	}
	if rep.DurationNS <= 0 || rep.DurationSeconds <= 0 {
		t.Errorf("no wall-clock duration recorded: %+v", rep)
	}
	for _, c := range []string{"explore.states", "explore.transitions", "machine.steps"} {
		if rep.Counters[c] <= 0 {
			t.Errorf("counter %s missing or zero: %v", c, rep.Counters)
		}
		if rep.Rates[c+"_per_sec"] <= 0 {
			t.Errorf("rate %s_per_sec missing or zero: %v", c, rep.Rates)
		}
	}
	// The explorer resumes the stepping process once per transition, and
	// rebuilding a fresh successor at the merge (machine.Replay) is not a
	// step, so the global step counter equals the transition counter.
	if rep.Counters["machine.steps"] != rep.Counters["explore.transitions"] {
		t.Errorf("machine.steps (%d) != explore.transitions (%d)",
			rep.Counters["machine.steps"], rep.Counters["explore.transitions"])
	}
}

// TestEventsJSONL checks the -events stream is well-formed JSONL
// bracketed by run.start and run.done.
func TestEventsJSONL(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	code, _, errOut := runCLI(t, "-protocol", "alg2", "-n", "3", "-p", "1", "-events", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("malformed event line %q: %v", sc.Text(), err)
		}
		name, _ := ev["event"].(string)
		names = append(names, name)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("want at least run.start, explore.done, run.done; got %v", names)
	}
	if names[0] != "run.start" || names[len(names)-1] != "run.done" {
		t.Errorf("stream not bracketed by run.start/run.done: %v", names)
	}
	found := false
	for _, n := range names {
		if n == "explore.done" {
			found = true
		}
	}
	if !found {
		t.Errorf("no explore.done event in %v", names)
	}
}

// TestInconclusiveElapsed checks the INCONCLUSIVE (exit 3) path also
// reports wall time and throughput, not just the success path.
func TestInconclusiveElapsed(t *testing.T) {
	t.Parallel()
	code, out, _ := runCLI(t, "-protocol", "alg2", "-n", "3", "-p", "1", "-max-states", "10")
	if code != 3 {
		t.Fatalf("exit %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "elapsed:") || !strings.Contains(out, "states/sec") {
		t.Errorf("INCONCLUSIVE path missing elapsed/throughput line:\n%s", out)
	}
}

// TestSuccessElapsed pins the elapsed line on the solved path too.
func TestSuccessElapsed(t *testing.T) {
	t.Parallel()
	code, out, errOut := runCLI(t, "-protocol", "alg2", "-n", "2", "-p", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "elapsed:") || !strings.Contains(out, "states/sec") {
		t.Errorf("solved path missing elapsed/throughput line:\n%s", out)
	}
}
