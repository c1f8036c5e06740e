package main

// metricDef names one metric the benchmark prints. The tables below
// are the code-side copy of BENCHMARK.json (a test pins the two
// together): every run prints every end-to-end metric untraced and
// every per-layer metric traced, on every workload.
type metricDef struct {
	name string
	unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression (0 for
	// per-layer metrics, which carry none).
	bound float64
}

// endToEnd are the metrics a user of the system sees. Each bound is at
// least three times the widest spread (quartile distance over median)
// its metric showed over ten seeds on the shared 2-core box the
// benchmark was written on (README, "How steady it is"): a pure CPU
// loop there drifts by a twentieth from minute to minute.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "queries/s", "higher", 0.20},
	{"first_row_p50_us", "us", "lower", 0.25},
	{"total_p50_us", "us", "lower", 0.20},
	{"write_ops_per_s", "statements/s", "higher", 0.20},
}

// perLayer are the metrics of single layers, read from outside: timed
// calls into public functions, returned reports and Stats() snapshots.
var perLayer = []metricDef{
	// value + keycodec: encode/decode of the sample's result rows.
	{"codec.ns_per_row", "ns/row", "lower", 0},
	{"codec.alloc_b_per_row", "B/row", "lower", 0},
	// buffer / storage / heap / btree.
	{"buffer.hit_ratio", "ratio", "higher", 0},
	{"buffer.fetches_per_query", "1/query", "lower", 0},
	{"storage.reads_per_query", "1/query", "lower", 0},
	{"storage.writes_per_query", "1/query", "lower", 0},
	// exec: the sample through Engine.ExecuteProjectCtx, PMV-less.
	{"exec.plain_p50_us", "us", "lower", 0},
	{"exec.alloc_b_per_query", "B/query", "lower", 0},
	{"exec.rows_per_query", "rows/query", "higher", 0},
	// core: from the returned reports, View.Stats(), and derived.
	{"core.o1o2_p50_us", "us", "lower", 0},
	{"core.overhead_p50_us", "us", "lower", 0},
	{"core.exec_p50_us", "us", "lower", 0},
	{"core.query_hit_ratio", "ratio", "higher", 0},
	{"core.part_hit_ratio", "ratio", "higher", 0},
	{"core.partial_rows_per_query", "rows/query", "higher", 0},
	{"core.evictions_per_query", "1/query", "lower", 0},
	{"core.purged_per_write", "1/statement", "lower", 0},
	{"core.lock_wait_us_per_query", "us/query", "lower", 0},
	{"core.maint_us_per_write", "us/statement", "lower", 0},
	{"core.degraded", "count", "lower", 0},
	{"core.stale_retries", "count", "lower", 0},
	{"core.self_p50_us", "us", "lower", 0},
	// maint + wal: Plane.Stats().
	{"maint.stmts_per_batch", "1/batch", "higher", 0},
	{"maint.coalesced_frac", "ratio", "higher", 0},
	{"maint.fsyncs_per_stmt", "1/statement", "lower", 0},
	{"maint.sync_ms_per_batch", "ms/batch", "lower", 0},
	// wire: EncodeRow + DecodeRow over the sample, CostBytes.
	{"wire.ns_per_row", "ns/row", "lower", 0},
	{"wire.bytes_per_query", "B/query", "lower", 0},
	// server: Metrics() histograms and counters, plus the session's
	// share of the client-observed total.
	{"server.partial_mean_us", "us", "lower", 0},
	{"server.exec_mean_us", "us", "lower", 0},
	{"server.total_mean_us", "us", "lower", 0},
	{"server.session_self_p50_us", "us", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.errors", "count", "lower", 0},
	// cluster: the routed report and Router.Metrics().
	{"cluster.scatter_p50_us", "us", "lower", 0},
	{"cluster.exec_p50_us", "us", "lower", 0},
	{"cluster.probes_per_query", "1/query", "lower", 0},
	{"cluster.probe_rtt_mean_us", "us", "lower", 0},
	{"cluster.refills_per_query", "1/query", "lower", 0},
	{"cluster.probe_failures", "count", "lower", 0},
	// client: tails (too few samples to repeat within a tenth, so not
	// end-to-end) and the self-healing counters.
	{"client.total_p99_us", "us", "lower", 0},
	{"client.first_row_p99_us", "us", "lower", 0},
	{"client.redials", "count", "lower", 0},
	{"client.retries", "count", "lower", 0},
	// trace: mean self time per query of each span; the rows sum to
	// trace.root_us by construction.
	{"trace.root_us", "us/query", "lower", 0},
	{"trace.query_self_us", "us/query", "lower", 0},
	{"trace.server_session_self_us", "us/query", "lower", 0},
	{"trace.core_o1o2_self_us", "us/query", "lower", 0},
	{"trace.core_o3_self_us", "us/query", "lower", 0},
	{"trace.core_overhead_self_us", "us/query", "lower", 0},
	{"trace.cluster_scatter_self_us", "us/query", "lower", 0},
	{"trace.cluster_exec_self_us", "us/query", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// reading is one measured value of a metric. MAD is the median
// absolute deviation over the interval's windows (or the set-up
// repetitions); zero where the metric has no repeated measurement.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	MAD   float64 `json:"mad,omitempty"`
}

// readings maps metric name to its reading.
type readings map[string]reading

// set stores v under the named metric, taking the unit from defs.
func (r readings) set(defs []metricDef, name string, v, mad float64) {
	for _, d := range defs {
		if d.name == name {
			r[name] = reading{Value: v, Unit: d.unit, MAD: mad}
			return
		}
	}
	panic("bench: unknown metric " + name)
}

// zeroFill gives every metric of defs that r lacks a zero reading, so
// each workload prints the full list (a layer it does not use reads 0).
func (r readings) zeroFill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r[d.name]; !ok {
			r[d.name] = reading{Unit: d.unit}
		}
	}
}
