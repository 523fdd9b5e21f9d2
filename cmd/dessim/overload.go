package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/mec"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// overloadTenants is the two-class economy the overload scenario stresses: a
// flooding low-weight "free" tenant throttled by a token bucket, and a
// minority high-weight "gold" tenant that the fair and knapsack disciplines
// are supposed to protect. Weights feed both DRR quanta and knapsack values.
var overloadTenants = []admission.Tenant{
	{Name: "gold", Weight: 8},
	{Name: "free", Weight: 1, Rate: 0.5, Burst: 8},
}

// overloadNetwork is a small 6-cloudlet mesh sized so the generated stream
// saturates it quickly: total capacity is an order of magnitude below what
// the offered load demands, which is the point of the drill.
func overloadNetwork() *mec.Network {
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
	}
	g.AddEdge(0, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 5)
	cat := mec.NewCatalog([]mec.FunctionType{
		{Name: "fw", Demand: 10, Reliability: 0.96},
		{Name: "nat", Demand: 15, Reliability: 0.92},
		{Name: "ids", Demand: 20, Reliability: 0.90},
	})
	return mec.NewNetwork(g, []float64{150, 150, 150, 150, 150, 150}, cat)
}

// overloadRun is one policy's measured outcome in the overload comparison.
type overloadRun struct {
	policy   string
	decided  map[serve.Reason]int // requests by the reason the service decided them with
	gain     float64              // Σ tenant weight × log-gain (the admission objective)
	byTenant map[string]tenantOutcome
}

// tenantOutcome aggregates one tenant's view of a run.
type tenantOutcome struct {
	admitted int64
	p99      time.Duration
}

// runOverload replays the same 10x-overload request stream through three
// fresh services — one per admission discipline — and compares the economics.
// It returns a non-zero exit code when the expected dominance order
// knapsack ≥ fair ≥ fifo on tenant-weighted log-gain does not hold.
func runOverload(seed int64, stdout, stderr io.Writer) int {
	cfg := loadgen.Config{
		Seed:         seed,
		Requests:     640,
		WaveSize:     64, // 4× the queue bound: every wave overflows admission
		ChainLenMin:  1,
		ChainLenMax:  3,
		Expectation:  0.95,
		ReleaseEvery: 6,
		TenantMix: []loadgen.TenantShare{
			{Name: "free", Share: 0.85},
			{Name: "gold", Share: 0.15},
		},
	}

	runs := make([]overloadRun, 0, 3)
	for _, policy := range []string{serve.AdmissionFIFO, serve.AdmissionFair, serve.AdmissionKnapsack} {
		svc, err := serve.New(overloadNetwork(), serve.Options{
			Workers:           2,
			Seed:              seed,
			QueueDepth:        16,
			BatchSize:         8,
			Tenants:           overloadTenants,
			Admission:         policy,
			ScarcityWatermark: 0.5,
			// Session reliability alerting is the watchdog's concern, not this
			// drill's; park the thresholds so a deliberately starved network
			// does not flood the log with CRIT lines.
			AlertWarnFactor: 1e-9,
			AlertCritFactor: 1e-9,
		})
		if err != nil {
			fmt.Fprintf(stderr, "overload: %s: %v\n", policy, err)
			return 2
		}
		res, err := loadgen.Run(svc, cfg)
		stats := svc.TenantStats()
		svc.Drain()
		if err != nil {
			fmt.Fprintf(stderr, "overload: %s: %v\n", policy, err)
			return 2
		}
		runs = append(runs, summarizeOverload(policy, res, stats))
	}

	printOverload(stdout, runs)

	// The dominance check: each richer discipline must do at least as well on
	// the weighted objective as the one it subsumes. A tiny relative epsilon
	// absorbs float summation noise, nothing more.
	ok := true
	for i := 1; i < len(runs); i++ {
		eps := 1e-9 * math.Abs(runs[i-1].gain)
		if runs[i].gain < runs[i-1].gain-eps {
			fmt.Fprintf(stderr, "overload: FAIL %s weighted log-gain %.4f < %s %.4f\n",
				runs[i].policy, runs[i].gain, runs[i-1].policy, runs[i-1].gain)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	fmt.Fprintf(stdout, "overload: OK knapsack(%.4f) >= fair(%.4f) >= fifo(%.4f) on tenant-weighted log-gain\n",
		runs[2].gain, runs[1].gain, runs[0].gain)
	return 0
}

// summarizeOverload folds a run's records and tenant stats into table rows.
func summarizeOverload(policy string, res *loadgen.Result, stats serve.TenantsResponse) overloadRun {
	run := overloadRun{policy: policy, decided: map[serve.Reason]int{}, byTenant: map[string]tenantOutcome{}}
	lat := map[string][]time.Duration{}
	for _, rec := range res.Records {
		run.decided[rec.Reason]++
		if rec.Reason == serve.ReasonPlaced {
			lat[rec.Tenant] = append(lat[rec.Tenant], rec.Latency)
		}
	}
	for _, row := range stats.Tenants {
		run.gain += row.WeightedLogGain
		run.byTenant[row.Name] = tenantOutcome{admitted: row.Admitted, p99: quantile99(lat[row.Name])}
	}
	return run
}

// quantile99 is the exact p99 of the sample (zero for an empty one).
func quantile99(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	return d[int(math.Ceil(0.99*float64(len(d))))-1]
}

// printOverload renders the comparison table.
func printOverload(stdout io.Writer, runs []overloadRun) {
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tadmitted\tquota\tqueue\tshed\tw-log-gain\tgold-adm\tgold-p99\tfree-adm\tfree-p99")
	for _, r := range runs {
		gold, free := r.byTenant["gold"], r.byTenant["free"]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.4f\t%d\t%s\t%d\t%s\n",
			r.policy, r.decided[serve.ReasonPlaced], r.decided[serve.ReasonQuota],
			r.decided[serve.ReasonQueueFull], r.decided[serve.ReasonShed],
			r.gain, gold.admitted, gold.p99.Round(time.Microsecond),
			free.admitted, free.p99.Round(time.Microsecond))
	}
	w.Flush()
}
