package main

import "fmt"

// endToEnd lists the metrics of an untraced run (BENCHMARK.json
// "end_to_end"); every workload reports each of them.
var endToEnd = []string{
	"setup_s", "verdict_s", "cpu_s", "alloc_mb", "peak_rss_mb",
	"jobs_per_s", "job_p50_ms",
}

// perLayer lists the metrics of a traced run (BENCHMARK.json
// "per_layer") with their units. A workload that never reaches a layer
// reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"explore.check_s", "s"},
	{"explore.states", "count"},
	{"explore.transitions", "count"},
	{"explore.states_per_s", "1/s"},
	{"explore.runs", "count"},
	{"explore.allocs_per_state", "count"},
	{"explore.bytes_per_state", "B"},
	{"explore.gc_cycles", "count"},
	{"explore.gc_pause_ms", "ms"},
	{"explore.level_p50_ms", "ms"},
	{"explore.level_max_ms", "ms"},
	{"explore.frontier_max", "count"},
	{"explore.valency_critical", "count"},
	{"explore.valency_s", "s"},
	{"machine.steps", "count"},
	{"machine.steps_per_s", "1/s"},
	{"objects.step_calls", "count"},
	{"objects.step_ns_mean", "ns"},
	{"objects.step_share", "ratio"},
	{"objects.transitions_per_step", "ratio"},
	{"store.spilled_mb", "MB"},
	{"store.arena_faults", "count"},
	{"store.heap_max_mb", "MB"},
	{"store.disk_mb", "MB"},
	{"store.close_ms", "ms"},
	{"checkpoint.count", "count"},
	{"checkpoint.mb", "MB"},
	{"checkpoint.stall_ms", "ms"},
	{"checkpoint.share", "ratio"},
	{"checkpoint.file_mb", "MB"},
	{"enumerate.prepare_ms", "ms"},
	{"enumerate.check_s", "s"},
	{"enumerate.candidates", "count"},
	{"enumerate.pruned", "count"},
	{"enumerate.states", "count"},
	{"enumerate.memo_hits", "count"},
	{"enumerate.fork_states_saved", "count"},
	{"enumerate.memo_hit_ratio", "ratio"},
	{"enumerate.concrete_ratio", "ratio"},
	{"enumerate.candidate_p50_ms", "ms"},
	{"enumerate.candidate_tail_ms", "ms"},
	{"enumerate.allocs_per_candidate", "count"},
	{"dacd.submit_ms", "ms"},
	{"dacd.wait_ms", "ms"},
	{"dacd.result_ms", "ms"},
	{"dacd.compute_ms.explore", "ms"},
	{"dacd.compute_ms.sweep", "ms"},
	{"dacd.compute_ms.collections", "ms"},
	{"dacd.overhead_ms", "ms"},
	{"dacd.job_tail_ms", "ms"},
	{"dacd.rejected_429", "count"},
	{"jobs.journal_bytes_per_job", "B"},
	{"jobs.data_dir_kb_per_job", "KB"},
	{"obs.trace_overhead_pct", "%"},
	{"failed_ratio", "ratio"},
	{"span.iteration.self_ms", "ms"},
	{"span.explore.Check.self_ms", "ms"},
	{"span.Report.Close.self_ms", "ms"},
	{"span.enumerate.PrepareDAC.self_ms", "ms"},
	{"span.Prepared.CheckRange.self_ms", "ms"},
	{"span.job.self_ms", "ms"},
	{"span.http.submit.self_ms", "ms"},
	{"span.sse.wait.self_ms", "ms"},
	{"span.http.result.self_ms", "ms"},
}

// perLayerResult reports the median of every collected per-layer
// sample, the span self times, and 0 for each layer metric the
// workload did not reach, and writes the spans out.
func perLayerResult(res *result, tr *tracer, cfg config, samples map[string][]float64) error {
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	for name, xs := range samples {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %q is not a per-layer metric", name)
		}
		res.set(name, median(xs), unit)
	}
	if err := tr.report(res, cfg.traceOut); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok && m.name != "failed_ratio" {
			res.set(m.name, 0, m.unit)
		}
	}
	return nil
}
