package main

// metric describes one reported number. BENCHMARK.json at the root of
// the repository lists the same names, units, directions and bounds;
// bench_test.go holds the two together.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median a change may lose
}

// endToEnd is what a composite service pays for calling its component
// through the mediator instead of directly. The first five are
// calibrated against direct calls measured next to the mediated ones,
// because on a small shared machine raw times drift by tens of percent
// within and between runs. The bounds are three times the widest
// run-to-run spread baseline.json recorded for the metric on any
// workload, or the most a bound may be, a quarter.
var endToEnd = []metric{
	{"latency_p50_x", "x", "lower", 0.20},
	{"latency_p99_x", "x", "lower", 0.25},
	{"capacity_x", "x", "higher", 0.25},
	{"cpu_x", "x", "lower", 0.25},
	{"extra_allocs_per_demand", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer numbers of a traced run, layer first.
var perLayer = []metric{
	{"client.mediated_p50_us", "us", "lower", 0},
	{"client.mediated_p99_us", "us", "lower", 0},
	{"client.mediated_mean_us", "us", "lower", 0},
	{"client.mediated_rps", "1/s", "higher", 0},
	{"client.direct_p50_us", "us", "lower", 0},
	{"client.direct_p99_us", "us", "lower", 0},
	{"client.direct_mean_us", "us", "lower", 0},
	{"client.direct_rps", "1/s", "higher", 0},
	{"client.attempted", "count", "higher", 0},
	{"client.failed", "count", "lower", 0},
	{"client.failed_share", "share", "lower", 0},
	{"client.wrong_delivered", "count", "lower", 0},
	{"inbound.net_mean_us", "us", "lower", 0},
	{"fleet.handler_mean_us", "us", "lower", 0},
	{"fleet.handler_p99_us", "us", "lower", 0},
	{"protocol.decode_request_mean_us", "us", "lower", 0},
	{"protocol.decode_reply_mean_us", "us", "lower", 0},
	{"protocol.equal_mean_us", "us", "lower", 0},
	{"protocol.write_body_mean_us", "us", "lower", 0},
	{"protocol.calls_per_demand", "count", "lower", 0},
	{"protocol.bytes_per_demand", "B", "lower", 0},
	{"protocol.self_mean_us", "us", "lower", 0},
	{"oracle.judge_mean_us", "us", "lower", 0},
	{"oracle.self_mean_us", "us", "lower", 0},
	{"adjudicate.adjudicate_mean_us", "us", "lower", 0},
	{"wire.rtt_mean_us", "us", "lower", 0},
	{"wire.rtt_p99_us", "us", "lower", 0},
	{"wire.self_mean_us", "us", "lower", 0},
	{"wire.dials", "count", "lower", 0},
	{"wire.writes_per_call", "count", "lower", 0},
	{"wire.reads_per_call", "count", "lower", 0},
	{"wire.bytes_per_call", "B", "lower", 0},
	{"wire.post_p50_us", "us", "lower", 0},
	{"wire.post_allocs", "count", "lower", 0},
	{"httpx.post_p50_us", "us", "lower", 0},
	{"httpx.post_allocs", "count", "lower", 0},
	{"release.handler_mean_us", "us", "lower", 0},
	{"release.self_mean_us", "us", "lower", 0},
	{"release.calls_per_demand", "count", "lower", 0},
	{"release.faults_injected", "count", "higher", 0},
	{"core.self_mean_us", "us", "lower", 0},
	{"monitor.note_p50_us", "us", "lower", 0},
	{"monitor.recorded_share", "share", "higher", 0},
	{"bayes.posterior_p50_us", "us", "lower", 0},
	{"process.cpu_us_per_demand", "us", "lower", 0},
	{"process.allocs_per_demand", "count", "lower", 0},
	{"process.alloc_bytes_per_demand", "B", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.goroutines_end", "count", "lower", 0},
	{"process.heap_inuse_mb", "MB", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_us", "us", "lower", 0},
	{"ledger.unattributed_share", "share", "lower", 0},
}
