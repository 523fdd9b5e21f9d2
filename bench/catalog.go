package main

// metricDef names one metric of the benchmark contract. BENCHMARK.json is
// generated from these tables (`bash bench/run.sh -spec`), and a unit test
// keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is how long one run measures under the driver.
const runSeconds = 10

// endToEnd are the metrics a user of the system sees, as the benchmark driver
// gates them; every workload reports every one of them. The driver judges
// single runs on ten seeds and refuses a bound narrower than their quartile
// spread, asking for three times it, so each bound is min(25 % cap, 3 × the
// widest ten-seed spread any workload showed at the seed commit) — README.md
// has the spreads. The suite's medians of repetitions resolve finer and are
// gated by the tighter `gates` below.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"augment_rps", "1/s", "higher", 0.25},
	{"augment_p50_ms", "ms", "lower", 0.25},
	{"augment_p95_ms", "ms", "lower", 0.25},
	{"ok_share", "ratio", "higher", 0.002},
	{"reliability_mean", "ratio", "higher", 0.001},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// gate is how the suite (-compare, -selfcheck) judges one end-to-end metric
// on medians of interleaved repetitions: B may be worse than A by
// max(Rel·|A|, Abs) before the row counts as a regression.
type gate struct {
	Name, Unit, Better string
	Rel, Abs           float64
}

// gates are ISSUE 11's eleven end-to-end metrics with ISSUE 11's bounds
// (ok_share stands in for fail_share, which the contract's never-0 rule keeps
// out of BENCHMARK.json). The eight above come from a run's result line; the
// other three apply to some workloads only and travel in runDetail.Gated.
var gates = []gate{
	{"setup_s", "s", "lower", 0.50, 0.020},
	{"augment_rps", "1/s", "higher", 0.10, 0},
	{"augment_p50_ms", "ms", "lower", 0.10, 0},
	{"augment_p95_ms", "ms", "lower", 0.10, 0},
	{"release_p50_ms", "ms", "lower", 0.15, 0},
	{"ok_share", "ratio", "higher", 0, 0.002},
	{"met_share", "ratio", "higher", 0, 0.002},
	{"reliability_mean", "ratio", "higher", 0, 0.001},
	{"cpu_ms_per_req", "ms", "lower", 0.10, 0},
	{"peak_rss_mb", "MB", "lower", 0.15, 0},
	{"sweep_s", "s", "lower", 0.10, 0},
}

// perLayer are single-layer diagnostics from the traced pass (T), counter
// deltas (C) and probes (P). They carry no bound. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// wire (serve handlers)
	{Name: "wire.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.request_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.response_bytes", Unit: "B", Better: "lower"},
	// queue + batcher (serve)
	{Name: "serve.queue_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.queue_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.gate_wait_us_p50", Unit: "us", Better: "lower"},
	// execute (serve + engine)
	{Name: "serve.admit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.solve_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.solve_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.unattributed_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.spec_valid_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.commit_conflicts_per_kreq", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.memo_hits_per_kreq", Unit: "count", Better: "higher"},
	{Name: "serve.epochs_per_req", Unit: "count", Better: "lower"},
	{Name: "engine.overhead_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "engine.speedup_2w", Unit: "ratio", Better: "higher"},
	// memory (serve)
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "serve.gc_pause_ms", Unit: "ms", Better: "lower"},
	// admission
	{Name: "admission.place_random_us", Unit: "us", Better: "lower"},
	{Name: "admission.place_maxrel_us", Unit: "us", Better: "lower"},
	{Name: "admission.fairqueue_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "admission.bucket_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "admission.select_us", Unit: "us", Better: "lower"},
	// core
	{Name: "core.instance_build_us", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.ILP", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.Randomized", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.Heuristic", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.Greedy", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.Failsafe", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_solve.ILP", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_solve.Randomized", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_solve.Heuristic", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_solve.Greedy", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_solve.Failsafe", Unit: "count", Better: "lower"},
	{Name: "core.solve_ms_max.ILP", Unit: "ms", Better: "lower"},
	// ilp (counts from the program's own registry)
	{Name: "ilp.nodes_per_solve", Unit: "count", Better: "lower"},
	{Name: "ilp.claimed_per_node", Unit: "ratio", Better: "lower"},
	{Name: "ilp.pivots_per_solve", Unit: "count", Better: "lower"},
	{Name: "ilp.warm_hit_share", Unit: "ratio", Better: "higher"},
	// lp
	{Name: "lp.solve_us", Unit: "us", Better: "lower"},
	{Name: "lp.pivots_per_solve", Unit: "count", Better: "lower"},
	{Name: "lp.eta_refreshes_per_solve", Unit: "count", Better: "lower"},
	// matching, graph
	{Name: "matching.solve_us", Unit: "us", Better: "lower"},
	{Name: "graph.neighborhood_us", Unit: "us", Better: "lower"},
	// serve/wal
	{Name: "serve.wal_fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.wal_fsync_us_p95", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us_mean", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_append", Unit: "ratio", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.restore_ms", Unit: "ms", Better: "lower"},
	// health (serve, serve/watchdog)
	{Name: "health.apply_us", Unit: "us", Better: "lower"},
	{Name: "health.audit_round_ms", Unit: "ms", Better: "lower"},
	{Name: "health.restored_share", Unit: "ratio", Better: "higher"},
	// obs
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
	// experiments (Fig. 1(c) cells)
	{Name: "experiments.sweep_s", Unit: "s", Better: "lower"},
	{Name: "experiments.ilp_ms.len8", Unit: "ms", Better: "lower"},
	{Name: "experiments.ilp_ms.len14", Unit: "ms", Better: "lower"},
	{Name: "experiments.ilp_ms.len20", Unit: "ms", Better: "lower"},
	{Name: "experiments.randomized_ms.len20", Unit: "ms", Better: "lower"},
	{Name: "experiments.heuristic_ms.len20", Unit: "ms", Better: "lower"},
	// ungated end-to-end diagnostics
	{Name: "serve.augment_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.release_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.release_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.met_share", Unit: "ratio", Better: "higher"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
}

// benchmarkSpec is BENCHMARK.json. Per-layer entries carry no bound key
// (metricDef omits a zero bound).
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildSpec() benchmarkSpec {
	b := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		b.Workloads = append(b.Workloads, workloadWhy{Name: s.name, Why: s.why})
	}
	return b
}
