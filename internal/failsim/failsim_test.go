package failsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mec"
	"repro/internal/workload"
)

// solvedPlacement builds a small network, solves the augmentation, and
// returns the result for simulation.
func solvedPlacement(t *testing.T, rho float64) *core.Result {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	catalog := mec.NewCatalog([]mec.FunctionType{
		{Name: "a", Demand: 300, Reliability: 0.8},
		{Name: "b", Demand: 400, Reliability: 0.9},
	})
	net := mec.NewNetwork(g, []float64{2000, 0, 2000, 0}, catalog)
	req := mec.NewRequest(1, []int{0, 1}, rho, 0, 3)
	req.Primaries = []int{0, 2}
	net.Consume(0, 300)
	net.Consume(2, 400)
	inst := core.NewInstance(net, req, core.Params{L: 2})
	res, err := core.SolveILP(inst, core.ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustSimulate runs Simulate and fails the test on error.
func mustSimulate(t *testing.T, res *core.Result, trials int, rng *rand.Rand) *Outcome {
	t.Helper()
	out, err := Simulate(res, trials, rng)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEmpiricalMatchesAnalytical(t *testing.T) {
	res := solvedPlacement(t, 1.0)
	rng := rand.New(rand.NewSource(5))
	out := mustSimulate(t, res, 200000, rng)
	// Normal-approximation 5-sigma band around the analytical value.
	p := out.Analytical
	sigma := math.Sqrt(p*(1-p)/float64(out.Trials)) + 1e-9
	if math.Abs(out.Availability-p) > 5*sigma+1e-4 {
		t.Fatalf("empirical %v vs analytical %v (sigma %v)", out.Availability, p, sigma)
	}
}

func TestEmpiricalMatchesAnalyticalNoBackups(t *testing.T) {
	// ρ low: trim removes all backups; availability must match Π r_i.
	res := solvedPlacement(t, 0.5)
	if got := totalCounts(res); got != 0 {
		t.Fatalf("expected no backups, got %d", got)
	}
	rng := rand.New(rand.NewSource(6))
	out := mustSimulate(t, res, 200000, rng)
	want := 0.8 * 0.9
	sigma := math.Sqrt(want * (1 - want) / float64(out.Trials))
	if math.Abs(out.Availability-want) > 5*sigma+1e-4 {
		t.Fatalf("empirical %v vs %v", out.Availability, want)
	}
}

func TestBackupsImproveAvailability(t *testing.T) {
	with := solvedPlacement(t, 1.0)
	without := solvedPlacement(t, 0.5) // trims to zero backups
	rng := rand.New(rand.NewSource(7))
	a1 := mustSimulate(t, with, 50000, rng).Availability
	a2 := mustSimulate(t, without, 50000, rng).Availability
	if a1 <= a2 {
		t.Fatalf("backups did not improve availability: %v vs %v", a1, a2)
	}
}

func TestFuncDownTracksWeakestLink(t *testing.T) {
	res := solvedPlacement(t, 0.5) // primaries only: r=0.8 vs r=0.9
	rng := rand.New(rand.NewSource(8))
	out := mustSimulate(t, res, 100000, rng)
	pos, count := out.WeakestLink()
	if pos != 0 {
		t.Fatalf("weakest link should be the r=0.8 function, got %d (count %d)", pos, count)
	}
	// Down rate of position 0 ≈ 0.2.
	rate := float64(out.FuncDown[0]) / float64(out.Trials)
	if math.Abs(rate-0.2) > 0.01 {
		t.Fatalf("func 0 down rate %v, want ≈0.2", rate)
	}
}

func TestFailoverDepthPopulated(t *testing.T) {
	res := solvedPlacement(t, 1.0)
	if totalCounts(res) == 0 {
		t.Skip("no backups placed")
	}
	rng := rand.New(rand.NewSource(9))
	out := mustSimulate(t, res, 50000, rng)
	if len(out.FailoverDepth) == 0 {
		t.Fatal("no failovers observed despite backups and r<1")
	}
	// Depth-1 failovers must dominate deeper ones (geometric decay).
	if out.FailoverDepth[1] <= out.FailoverDepth[2] {
		t.Fatalf("failover depth histogram not decaying: %v", out.FailoverDepth)
	}
}

func TestCloudletOutage(t *testing.T) {
	res := solvedPlacement(t, 1.0)
	rng := rand.New(rand.NewSource(10))
	base := mustSimulate(t, res, 50000, rng).Availability
	outage, err := CloudletOutage(res, 50000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(outage) == 0 {
		t.Fatal("no cloudlets in outage map")
	}
	for u, avail := range outage {
		if avail > base+0.01 {
			t.Fatalf("availability with cloudlet %d dark (%v) exceeds baseline (%v)", u, avail, base)
		}
	}
}

// TestCloudletOutageSameSeedSameRows pins seeded determinism: every cloudlet
// draws from the one rng, so the rows depend on the visiting order, which
// must not be a map's.
func TestCloudletOutageSameSeedSameRows(t *testing.T) {
	res := solvedPlacement(t, 1.0)
	run := func() map[int]float64 {
		outage, err := CloudletOutage(res, 2000, rand.New(rand.NewSource(10)))
		if err != nil {
			t.Fatal(err)
		}
		return outage
	}
	first := run()
	if len(first) < 2 {
		t.Fatalf("placement uses %d cloudlets; the order cannot matter", len(first))
	}
	for i := 0; i < 8; i++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("same seed, different rows:\n%v\n%v", first, again)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	res := solvedPlacement(t, 1.0)
	rng := rand.New(rand.NewSource(1))
	if _, err := Simulate(res, 0, rng); err == nil {
		t.Fatal("zero trials should error")
	}
	if _, err := Simulate(nil, 10, rng); err == nil {
		t.Fatal("nil result should error")
	}
	if _, err := Simulate(&core.Result{}, 10, rng); err == nil {
		t.Fatal("detached result should error")
	}
	if _, err := CloudletOutage(res, -1, rng); err == nil {
		t.Fatal("negative trials should error")
	}
	if _, err := CloudletOutage(&core.Result{}, 10, rng); err == nil {
		t.Fatal("detached result should error")
	}
}

// TestPaperScalePlacementAgreement runs the full pipeline at paper scale and
// requires the empirical availability of every solver's placement to agree
// with its analytical reliability.
func TestPaperScalePlacementAgreement(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	rng := rand.New(rand.NewSource(77))
	net := cfg.Network(rng)
	req := cfg.RequestWithLength(rng, 0, 6, net.Catalog().Size())
	workload.PlacePrimariesRandom(net, req, rng)
	inst := core.NewInstance(net, req, core.Params{L: 1})

	heu, err := core.SolveHeuristic(inst, core.HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := mustSimulate(t, heu, 300000, rng)
	p := out.Analytical
	sigma := math.Sqrt(p*(1-p)/float64(out.Trials)) + 1e-9
	if math.Abs(out.Availability-p) > 5*sigma+2e-4 {
		t.Fatalf("empirical %v vs analytical %v", out.Availability, p)
	}
}

func totalCounts(r *core.Result) int {
	n := 0
	for _, c := range r.Counts {
		n += c
	}
	return n
}
