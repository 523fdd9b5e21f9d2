package main

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what a run knows beyond its metrics: sample counts, the stage
// budget of the traced pass and the probe spans. The suite folds it into the
// result file; the driver never sees it.
type runDetail struct {
	Samples map[string]int          `json:"samples,omitempty"`
	Gated   map[string]float64      `json:"gated,omitempty"` // --trace 0: every gate that applies to the workload
	Stages  []stageStats            `json:"stages,omitempty"`
	Probes  map[string]probeSummary `json:"probes,omitempty"`
}

// fill turns name → value into the contract's metrics map: every metric of
// defs is present, with its unit; a name outside defs is a harness bug.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	for name := range values {
		return nil, fmt.Errorf("metric %s is not in the catalog", name)
	}
	return out, nil
}

// latency returns the p-quantile of an unsorted latency sample, and an error
// when the sample is too small to report it.
func latency(name string, samples []float64, p float64) (float64, error) {
	v, ok := quantile(sortedCopy(samples), p)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples do not support p%g", name, len(samples), p*100)
	}
	return v, nil
}

// takeGated moves the values the suite gates out of values: all of them are
// returned, and the ones that are not contract metrics (fill would reject
// them) are deleted.
func takeGated(values map[string]float64) map[string]float64 {
	gated := make(map[string]float64)
	for _, g := range gates {
		if v, ok := values[g.Name]; ok {
			gated[g.Name] = v
		}
	}
	for name := range gated {
		if !hasMetric(endToEnd, name) {
			delete(values, name)
		}
	}
	return gated
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// servingEndToEnd derives the end-to-end metrics of one serving repetition,
// the contract's eight and the suite's release_p50_ms and met_share.
func servingEndToEnd(r *servingRun) (map[string]float64, error) {
	if r.augments == 0 || r.admitted == 0 {
		return nil, fmt.Errorf("measured phase answered %d of %d augments", r.admitted, r.augments)
	}
	p50, err := latency("augment_p50_ms", r.augLatMS, 0.5)
	if err != nil {
		return nil, err
	}
	p95, err := latency("augment_p95_ms", r.augLatMS, 0.95)
	if err != nil {
		return nil, err
	}
	rel50, err := latency("release_p50_ms", r.relLatMS, 0.5)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":          median(r.setupS),
		"augment_rps":      float64(r.augments) / r.elapsedS,
		"augment_p50_ms":   p50,
		"augment_p95_ms":   p95,
		"release_p50_ms":   rel50,
		"ok_share":         1 - stats.Ratio(float64(r.failed), float64(r.augments+r.releases)),
		"met_share":        float64(r.met) / float64(r.augments),
		"reliability_mean": r.relSum / float64(r.admitted),
		"cpu_ms_per_req":   r.cpuS * 1e3 / float64(r.augments),
		"peak_rss_mb":      r.peakRSSMB,
	}, nil
}

// runtimeCells is the running-time table with each cell the fastest of the
// repetition's first minSweeps sweeps (a fixed number, so that a faster build
// does not get more draws). A cell is a mean over 40 solves, a millisecond or
// two each but for one or two branch-and-bound trees whose wall time depends
// on how their speculative rounds were scheduled, and it moves ±20 % between
// sweeps that solve the very same instances. The work is identical, so the
// fastest sweep is the least disturbed one: over triples of eight back-to-back
// sweeps the median row spread 3.7 % this way, 14 % with the cell's median
// and more with its mean.
func (r *offlineRun) runtimeCells() *fig1Table {
	first := r.sweeps[0].ms
	best := &fig1Table{solvers: first.solvers, lengths: first.lengths, cell: make(map[string]map[int]float64)}
	for _, sv := range first.solvers {
		best.cell[sv] = make(map[int]float64)
		for _, l := range first.lengths {
			best.cell[sv][l] = first.cell[sv][l]
			for _, sw := range r.sweeps[1:minSweeps] {
				best.cell[sv][l] = min(best.cell[sv][l], sw.ms.cell[sv][l])
			}
		}
	}
	return best
}

func (r *offlineRun) over(pick func(*sweep) float64) []float64 {
	vs := make([]float64, len(r.sweeps))
	for i, sw := range r.sweeps {
		vs[i] = pick(sw)
	}
	return vs
}

// offlineEndToEnd derives the end-to-end metrics of one offline repetition.
// One "request" is one trial-solve. Per-solve times are not printed, so the
// latency percentiles are taken over the ten rows of the running-time table
// (Fig. 1(c)), each row summed over its solvers: the time one request of that
// SFC length costs the sweep. The median is the mean of the two middle rows
// (lengths 8 to 12 cost about the same and swap places); the p95 row is the
// slowest, the ILP tail. (The median of the 30 single cells is a sub-0.2 ms
// Heuristic cell that moved 2x between identical runs.)
func offlineEndToEnd(r *offlineRun) map[string]float64 {
	sweepS := median(r.over(func(s *sweep) float64 { return s.wallS }))
	ms := sortedCopy(r.runtimeCells().rows())
	p95, _ := quantile(ms, 0.95)
	return map[string]float64{
		"setup_s":          median(r.setupS),
		"augment_rps":      float64(r.solves) / sweepS,
		"augment_p50_ms":   median(ms),
		"augment_p95_ms":   p95,
		"sweep_s":          sweepS,
		"ok_share":         1, // an errored trial fails the sweep, and with it the run
		"reliability_mean": mean(r.sweeps[0].rel.all()),
		"cpu_ms_per_req":   median(r.over(func(s *sweep) float64 { return s.cpuS })) * 1e3 / float64(r.solves),
		"peak_rss_mb":      median(r.over(func(s *sweep) float64 { return s.peakRSSMB })),
	}
}

// servingPerLayer derives the traced pass's per-layer metrics: stage self
// times from the echoed span trees (T), ratios from the registry and
// memstats deltas (C), and the tracing overhead against the untraced half.
func servingPerLayer(un, tr *servingRun) (map[string]float64, []stageStats, error) {
	rows, err := stageBudget(tr.traced)
	if err != nil {
		return nil, nil, err
	}
	if len(tr.traced) == 0 {
		return nil, nil, fmt.Errorf("traced pass echoed no span trees")
	}
	c := tr.counters
	n := float64(tr.augments)
	m := map[string]float64{
		"wire.overhead_us_p50":      stageRow(rows, stageWire).P50US,
		"serve.queue_us_p50":        stageRow(rows, "queue").P50US,
		"serve.queue_us_p95":        stageRow(rows, "queue").P95US,
		"serve.gate_wait_us_p50":    stageRow(rows, "gate_wait").P50US,
		"serve.admit_us_p50":        stageRow(rows, "admit").P50US,
		"serve.solve_us_p50":        stageRow(rows, "solve").P50US,
		"serve.solve_us_p95":        stageRow(rows, "solve").P95US,
		"serve.commit_us_p50":       stageRow(rows, "commit").P50US,
		"serve.unattributed_us_p50": stageRow(rows, stageUnattributed).P50US,
		"serve.unattributed_share":  stageRow(rows, stageUnattributed).Share,
		"serve.wal_fsync_us_p50":    stageRow(rows, "wal_fsync").P50US,
		"serve.wal_fsync_us_p95":    stageRow(rows, "wal_fsync").P95US,

		"serve.batch_size_mean": stats.Ratio(c["serve_batch_size_sum"], c["serve_batch_size_count"]),
		"serve.spec_valid_share": stats.Ratio(c["serve_speculation_valid_total"],
			c["serve_speculation_valid_total"]+c["serve_speculation_stale_total"]+c["serve_speculation_skipped_total"]),
		"serve.commit_conflicts_per_kreq": 1e3 * c["serve_commit_conflicts_total"] / n,
		"serve.cache_hit_share":           stats.Ratio(c["serve_cache_hits_total"], c["serve_cache_hits_total"]+c["serve_cache_misses_total"]),
		"serve.memo_hits_per_kreq":        1e3 * c["serve_solve_memo_hits_total"] / n,
		"serve.epochs_per_req":            c["serve_epoch_advances_total"] / n,
		"serve.allocs_per_req":            c["mem_mallocs"] / n,
		"serve.bytes_per_req":             c["mem_total_alloc"] / n,
		"serve.gc_pause_ms":               1e3 * c["mem_pause_ns"] / 1e6 / n, // per 1,000 requests
		"wal.fsync_us_mean":               1e6 * stats.Ratio(c["serve_wal_fsync_seconds_sum"], c["serve_wal_fsync_seconds_count"]),
		"wal.fsyncs_per_append":           stats.Ratio(c["serve_wal_fsync_seconds_count"], c["serve_wal_appends_total"]),
		"wal.restore_ms":                  tr.restoreS * 1e3,

		"health.apply_us":       mean(tr.health.applyUS),
		"health.audit_round_ms": mean(tr.health.auditMS),
		"health.restored_share": stats.Ratio(float64(tr.health.restored), float64(tr.health.attempted)),

		"serve.met_share": stats.Ratio(float64(un.met), float64(un.augments)),
		"fail_share":      stats.Ratio(float64(un.failed), float64(un.augments+un.releases)),
	}
	ilpCounters(m, c)
	unP50, _ := quantile(sortedCopy(un.augLatMS), 0.5)
	trP50, _ := quantile(sortedCopy(tr.augLatMS), 0.5)
	m["obs.trace_overhead_share"] = stats.Ratio(trP50-unP50, unP50)
	// Tail diagnostics are reported when the sample supports them, else 0.
	if v, ok := quantile(sortedCopy(un.augLatMS), 0.99); ok {
		m["serve.augment_p99_ms"] = v
	}
	rel := sortedCopy(un.relLatMS)
	m["serve.release_p50_ms"], _ = quantile(rel, 0.5)
	if v, ok := quantile(rel, 0.99); ok {
		m["serve.release_p99_ms"] = v
	}
	return m, rows, nil
}

// ilpCounters reads the solver-side counts out of a registry snapshot or
// delta. The serving and sweep ILP is core's count-space branch and bound: it
// reports nodes, and it never calls the simplex or the generic internal/ilp
// engine, so pivots come from the Randomized solver's relaxation alone and
// the warm-start counters stay absent (0) at the seed commit.
func ilpCounters(m map[string]float64, c counters) {
	nodes := c[`solver_ilp_nodes{solver="ILP"}_sum`]
	m["ilp.nodes_per_solve"] = stats.Ratio(nodes, c[`solver_solve_total{solver="ILP"}`])
	m["ilp.claimed_per_node"] = stats.Ratio(c["ilp_bnb_nodes_claimed"], nodes)
	pivots, lpSolves := 0.0, 0.0
	for _, sv := range probedSolvers {
		pivots += c[`solver_lp_pivots{solver="`+sv+`"}_sum`]
		lpSolves += c[`solver_lp_pivots{solver="`+sv+`"}_count`]
	}
	m["ilp.pivots_per_solve"] = stats.Ratio(pivots, lpSolves)
	m["ilp.warm_hit_share"] = stats.Ratio(c["ilp_warmstart_hits"], c["ilp_warmstart_hits"]+c["ilp_cold_restarts"])
}

// offlinePerLayer derives the offline workload's per-layer metrics from the
// running-time table and the last sweep's run-manifest snapshot.
func offlinePerLayer(r *offlineRun) map[string]float64 {
	ms := r.runtimeCells()
	m := map[string]float64{
		"experiments.sweep_s":             median(r.over(func(s *sweep) float64 { return s.wallS })),
		"experiments.ilp_ms.len8":         ms.cell["ILP"][8],
		"experiments.ilp_ms.len14":        ms.cell["ILP"][14],
		"experiments.ilp_ms.len20":        ms.cell["ILP"][20],
		"experiments.randomized_ms.len20": ms.cell["Randomized"][20],
		"experiments.heuristic_ms.len20":  ms.cell["Heuristic"][20],
	}
	ilpCounters(m, r.sweeps[len(r.sweeps)-1].manifest)
	return m
}
