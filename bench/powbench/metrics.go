package main

import "encoding/json"

// metricDef is one entry of BENCHMARK.json. Every run prints every
// end-to-end metric (untraced) or every per-layer metric (traced); the
// harness self-test keeps this file and BENCHMARK.json identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a user of the system sees. They are the same five
// on every workload because the driver compares every metric on every
// workload; what the work unit and the operation are is the workload's
// (workloadDef.Unit and .Op). Bound is the share of the parent's median
// by which a metric may get worse before a change is rejected.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},              // median of three set-ups: model fit, boot, preload or image build
	{"work_per_s", "1/s", "higher", 0.25},        // work units completed ÷ round wall time, median over rounds
	{"op_p50_ms", "ms", "lower", 0.25},           // median latency of the primary operation, median over rounds
	{"cpu_us_per_work", "us", "lower", 0.25},     // process CPU time (user+system, load generator included) ÷ work
	{"alloc_bytes_per_work", "B", "lower", 0.08}, // heap bytes allocated (TotalAlloc) ÷ work
}

// perLayer are timed from this package around each layer's public
// calls, or read from the server's own registry. The prefix is the
// package. A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	// serve: the HTTP layer, ingest side.
	{Name: "serve.ack_p50_ms", Unit: "ms", Better: "lower"},           // the workload's own ack, both agents
	{Name: "serve.ack_p99_ms", Unit: "ms", Better: "lower"},           // its tail (no end-to-end tail metric: see README)
	{Name: "serve.http_us_per_batch", Unit: "us", Better: "lower"},    // traced loopback POST, one agent
	{Name: "serve.handler_us_per_batch", Unit: "us", Better: "lower"}, // the same batch through Handler().ServeHTTP
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},     // loopback − handler: sockets, net/http, the client
	{Name: "serve.self_us_per_batch", Unit: "us", Better: "lower"},    // handler − direct layer calls: routing, locks, response
	{Name: "serve.refused_total", Unit: "count", Better: "lower"},     // must be 0
	{Name: "serve.duplicates_total", Unit: "count", Better: "lower"},  // must be 0
	{Name: "serve.walbody_decode_us", Unit: "us", Better: "lower"},    // replay's json.Unmarshal of one WAL record
	{Name: "serve.recover_ms", Unit: "ms", Better: "lower"},           // NewDurable + Recover of the image
	// serve: query side.
	{Name: "serve.query_range_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.query_range_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.query_agg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.query_dist_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.job_power_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.writer_ack_p50_ms", Unit: "ms", Better: "lower"}, // open-loop writer beside the reader, from due time
	{Name: "serve.writer_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.query_http_us", Unit: "us", Better: "lower"}, // straddling range read, three ways
	{Name: "serve.query_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.query_http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.query_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.query_encode_us", Unit: "us", Better: "lower"}, // JSON encode of 360 points
	// trace: the wire format.
	{Name: "trace.decode_us_per_batch", Unit: "us", Better: "lower"}, // JSON decode into SampleBatch + Validate
	{Name: "trace.decode_allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "trace.wire_bytes_per_sample", Unit: "B", Better: "lower"},
	// tsdb.
	{Name: "tsdb.append_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "tsdb.append_allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "tsdb.dedup_mark_ns", Unit: "ns", Better: "lower"},
	{Name: "tsdb.memory_bytes", Unit: "B", Better: "lower"},
	{Name: "tsdb.query_range_head_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.query_range_merged_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.export_state_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.state_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.state_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.restore_state_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.state_bytes", Unit: "B", Better: "lower"},
	// admit.
	{Name: "admit.acquire_release_ns", Unit: "ns", Better: "lower"}, // Buckets.Allow + Limiter.Acquire/Release
	{Name: "admit.queue_push_pop_ns", Unit: "ns", Better: "lower"},  // same goroutine
	{Name: "admit.queue_handoff_us", Unit: "us", Better: "lower"},   // Push → the worker's Pop returns
	{Name: "admit.queue_sojourn_mean_us", Unit: "us", Better: "lower"},
	{Name: "admit.shed_total", Unit: "count", Better: "lower"}, // must be 0
	// wal.
	{Name: "wal.encode_us_per_batch", Unit: "us", Better: "lower"}, // json.Marshal of the record
	{Name: "wal.append_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "wal.wait_durable_us", Unit: "us", Better: "lower"},     // WaitDurable, one writer
	{Name: "wal.fsyncs_per_batch", Unit: "ratio", Better: "lower"}, // group commit at work: < 1 with two agents
	{Name: "wal.group_commit_mean_records", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "wal.read_range_tail_us", Unit: "us", Better: "lower"}, // ReadRange of the newest record of a full segment
	{Name: "wal.replay_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "wal.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.snapshot_read_ms", Unit: "ms", Better: "lower"},
	// repl.
	{Name: "repl.frame_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "repl.frame_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "repl.sync_wait_us", Unit: "us", Better: "lower"}, // handler with follower − handler without
	{Name: "repl.follower_apply_mean_us", Unit: "us", Better: "lower"},
	{Name: "repl.lag_records_max", Unit: "count", Better: "lower"},
	// anomaly.
	{Name: "anomaly.observe_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "anomaly.alerts_fired", Unit: "count", Better: "lower"}, // clean fleet: must be 0
	// block.
	{Name: "block.encode_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "block.decode_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "block.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "block.range_us", Unit: "us", Better: "lower"},
	{Name: "block.range_allocs", Unit: "count", Better: "lower"},
	{Name: "block.range_agg_us", Unit: "us", Better: "lower"},
	{Name: "block.quantiles_ms", Unit: "ms", Better: "lower"},
	{Name: "block.flush_ms", Unit: "ms", Better: "lower"},
	// mlearn, core, stats, gen, sched, telemetry: the offline analysis.
	{Name: "mlearn.bdt_predict_ns", Unit: "ns", Better: "lower"},
	{Name: "mlearn.bdt_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "mlearn.bdt_eval_ms", Unit: "ms", Better: "lower"},
	{Name: "mlearn.knn_eval_ms", Unit: "ms", Better: "lower"},
	{Name: "mlearn.flda_eval_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyze_emmy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyze_meggie_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.spearman_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sched.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.synth_ns_per_sample", Unit: "ns", Better: "lower"},
	// obs, ship.
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "ship.overhead_us_per_batch", Unit: "us", Better: "lower"},
	// runtime: the Go runtime over the traced run.
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_heap_mb", Unit: "MB", Better: "lower"},
	// loadgen: keeps the generator honest.
	{Name: "loadgen.ops_attempted", Unit: "count", Better: "higher"},
	{Name: "loadgen.encode_share", Unit: "ratio", Better: "lower"},         // generate + encode ÷ wall; must stay < 0.05
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},             // how late the open-loop writer sent
	{Name: "loadgen.trace_overhead_ratio", Unit: "ratio", Better: "lower"}, // traced ÷ untraced ack p50, one agent
	{Name: "loadgen.stage_budget_ratio", Unit: "ratio", Better: "higher"},  // Σ stage self times ÷ the ack they explain; within 0.9–1.1
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// manifest renders BENCHMARK.json from the tables above
// (`powbench -manifest > BENCHMARK.json` after changing them).
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"` // bound present: never 0
		PerLayer   []metricDef `json:"per_layer"`  // bound omitted: always 0
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workload{w.Name, w.Why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	return append(data, '\n'), err
}
