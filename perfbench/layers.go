package main

// metricDef is one metric the benchmark reports. Moves names the
// end-to-end metric and workload a change in a per-layer metric should
// show up in; it is printed in every report so a reader can check a
// claimed gain against its prediction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// e2eMetrics are the end-to-end metrics every workload reports, from
// untraced runs. Each workload gives "operation" and "work" its own
// meaning (workloadUnits); the metric names the paper-facing figures
// of each workload carry are reported alongside in the report line.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower"},
}

// workloadUnits says what one operation and one work unit are in each
// workload, i.e. what throughput_per_s and the op latencies measure.
var workloadUnits = map[string]struct{ Op, Work, Named string }{
	"figures":  {Op: "one Fig 4 + Fig 5 + Fig 6 + SER sweep with a fresh trace cache", Work: "simulated instruction (warmup + measure, every core)", Named: "sim_insts_per_s"},
	"campaign": {Op: "one round: fresh UnSync campaign, fresh Reunion campaign, resume of the UnSync journal", Work: "trial (executed or resumed)", Named: "unsync_trials_per_s, reunion_trials_per_s, resume_trials_per_s"},
	"service":  {Op: "one job: submit, follow SSE progress to the final frame, fetch", Work: "job", Named: "job_latency_p50_ms, job_latency_tail_ms, jobs_per_s"},
	"fleet":    {Op: "one distributed campaign over two in-process workers", Work: "trial", Named: "fleet_trials_per_s"},
}

// traceOverhead lists the e2e metrics whose traced/untraced ratio a
// traced run reports as overhead.<name>. Set-up time is not part of
// either phase, and the heap is shared by both.
var traceOverhead = []string{"throughput_per_s", "op_p50_ms", "op_tail_ms"}

// cpuLayers are the leaf-package groups whose share of the traced
// phase's CPU profile is reported as <layer>.cpu_frac.
var cpuLayers = []string{
	"pipeline", "mem", "core", "reunion", "tmr", "trace",
	"emu", "fault", "campaign", "stream", "encoding_json", "syscall",
}

// probeMetrics are the per-layer metrics measured by the benchmark's
// own calls into each layer; allLayerMetrics adds the CPU-profile
// shares and the tracing overhead.
var probeMetrics = []metricDef{
	{Name: "trace.materialize_s", Unit: "s", Better: "lower", Moves: "throughput_per_s @ figures"},
	{Name: "trace.records", Unit: "count", Better: "lower", Moves: "throughput_per_s @ figures"},
	{Name: "cmp.baseline.host_ns_per_sim_inst", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ figures only"},
	{Name: "cmp.unsync.host_ns_per_sim_inst", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ figures only"},
	{Name: "cmp.reunion.host_ns_per_sim_inst", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ figures only"},
	{Name: "cmp.unsync.injected.host_ns_per_sim_inst", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ figures only"},
	{Name: "cmp.reunion.injected.host_ns_per_sim_inst", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ figures only"},
	{Name: "cmp.sim_cycles", Unit: "count", Better: "lower", Moves: "none: a simulator-only speed-up leaves it unchanged"},
	{Name: "cmp.sim_insts", Unit: "count", Better: "higher", Moves: "none: a simulator-only speed-up leaves it unchanged"},
	{Name: "cmp.alloc_bytes_per_sim_inst", Unit: "B", Better: "lower", Moves: "throughput_per_s and live_heap_mb @ figures"},
	{Name: "cmp.slot_partition_runs", Unit: "count", Better: "higher", Moves: "none: cmp.Run results whose topdown slots equal width x cycles"},
	{Name: "sweep.busy_frac", Unit: "ratio", Better: "higher", Moves: "throughput_per_s @ figures"},

	{Name: "fault.golden_ms", Unit: "ms", Better: "lower", Moves: "throughput_per_s @ campaign"},
	{Name: "campaign.kernel_trials_per_s.unsync", Unit: "1/s", Better: "higher", Moves: "throughput_per_s @ campaign (unsync_trials_per_s)"},
	{Name: "campaign.kernel_trials_per_s.reunion", Unit: "1/s", Better: "higher", Moves: "throughput_per_s @ campaign (reunion_trials_per_s)"},
	{Name: "campaign.lanes_retired_frac", Unit: "ratio", Better: "lower", Moves: "throughput_per_s @ campaign and @ fleet"},
	{Name: "campaign.lanes_shortcut_frac", Unit: "ratio", Better: "higher", Moves: "throughput_per_s @ campaign and @ fleet"},
	{Name: "stream.observe_ns_per_record", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ campaign (unsync_trials_per_s)"},
	{Name: "campaign.journal_bytes_per_trial", Unit: "B", Better: "lower", Moves: "throughput_per_s @ campaign (unsync and resume rates)"},
	{Name: "campaign.replay_records", Unit: "count", Better: "lower", Moves: "throughput_per_s @ campaign (resume_trials_per_s)"},
	{Name: "campaign.alloc_bytes_per_trial", Unit: "B", Better: "lower", Moves: "throughput_per_s @ campaign (unsync and resume rates)"},
	{Name: "campaign.journal_order_violations", Unit: "count", Better: "lower", Moves: "none: adjacent trial-index inversions in the checkpoints (journal-order defect)"},

	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, op_tail_ms, throughput_per_s @ service"},
	{Name: "serve.start_wait_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, op_tail_ms, throughput_per_s @ service"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, op_tail_ms, throughput_per_s @ service"},
	{Name: "serve.fetch_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, op_tail_ms, throughput_per_s @ service"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "throughput_per_s @ service"},

	{Name: "fleet.produce_trials_per_s", Unit: "1/s", Better: "higher", Moves: "throughput_per_s @ fleet"},
	{Name: "fleet.stream_trials_per_s", Unit: "1/s", Better: "higher", Moves: "throughput_per_s @ fleet"},
	{Name: "fleet.decode_ns_per_record", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ fleet"},
	{Name: "fabric.leases", Unit: "count", Better: "lower", Moves: "throughput_per_s @ fleet"},
	{Name: "fabric.splits", Unit: "count", Better: "lower", Moves: "throughput_per_s @ fleet"},
	{Name: "fabric.duplicates", Unit: "count", Better: "lower", Moves: "throughput_per_s @ fleet"},
	{Name: "fabric.useful_frac", Unit: "ratio", Better: "higher", Moves: "throughput_per_s @ fleet"},
	{Name: "fabric.failures", Unit: "count", Better: "lower", Moves: "throughput_per_s @ fleet"},
	{Name: "fabric.journal_bytes_per_trial", Unit: "B", Better: "lower", Moves: "throughput_per_s @ fleet"},
}

// allLayerMetrics returns every per-layer metric of traced runs. Every
// traced run prints all of them; a layer the workload does not reach
// reads 0.
func allLayerMetrics() []metricDef {
	out := append([]metricDef(nil), probeMetrics...)
	for _, layer := range cpuLayers {
		moves := "throughput_per_s @ figures"
		switch layer {
		case "emu", "fault", "campaign", "stream", "encoding_json", "syscall":
			moves = "throughput_per_s @ campaign, service and fleet"
		}
		out = append(out, metricDef{Name: layer + ".cpu_frac", Unit: "ratio", Better: "lower", Moves: moves})
	}
	for _, name := range traceOverhead {
		out = append(out, metricDef{Name: "overhead." + name, Unit: "ratio", Better: "lower",
			Moves: "none: traced over untraced " + name + " within the same run"})
	}
	return out
}
