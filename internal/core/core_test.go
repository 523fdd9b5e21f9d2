package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mec"
	"repro/internal/reliability"
)

// buildNet constructs a line network 0-1-2-...-(n-1) with the given per-node
// capacities and catalog.
func buildNet(caps []float64, types []mec.FunctionType) *mec.Network {
	g := graph.New(len(caps))
	for i := 0; i+1 < len(caps); i++ {
		g.AddEdge(i, i+1)
	}
	return mec.NewNetwork(g, caps, mec.NewCatalog(types))
}

// smallInstance: 3 APs in a line, cloudlets at 0 and 1 (adjacent), one
// 2-function chain with primaries on 0 and 1.
func smallInstance(rho float64) *Instance {
	net := buildNet(
		[]float64{1000, 1000, 0},
		[]mec.FunctionType{
			{Name: "a", Demand: 300, Reliability: 0.8},
			{Name: "b", Demand: 400, Reliability: 0.9},
		})
	req := mec.NewRequest(1, []int{0, 1}, rho, 0, 2)
	req.Primaries = []int{0, 1}
	// Admission consumed: a(300) on 0, b(400) on 1.
	net.Consume(0, 300)
	net.Consume(1, 400)
	return NewInstance(net, req, Params{L: 1})
}

func TestInstanceConstruction(t *testing.T) {
	inst := smallInstance(0.999)
	if len(inst.Positions) != 2 {
		t.Fatalf("positions %d", len(inst.Positions))
	}
	p0 := inst.Positions[0]
	// residuals: node0 = 700, node1 = 600. f a demand 300:
	// bins of position 0 (primary at 0, l=1): {0:2 slots, 1:2 slots}
	if len(p0.Bins) != 2 || p0.Bins[0] != 0 || p0.Bins[1] != 1 {
		t.Fatalf("p0 bins %v", p0.Bins)
	}
	if p0.Slots[0] != 2 || p0.Slots[1] != 2 {
		t.Fatalf("p0 slots %v", p0.Slots)
	}
	if p0.K != 4 {
		t.Fatalf("p0.K=%d, want 4", p0.K)
	}
	p1 := inst.Positions[1]
	// f b demand 400: node0 floor(700/400)=1, node1 floor(600/400)=1
	if p1.K != 2 {
		t.Fatalf("p1.K=%d, want 2", p1.K)
	}
	if math.Abs(inst.InitialReliability-0.72) > 1e-12 {
		t.Fatalf("initial %v, want 0.72", inst.InitialReliability)
	}
	if len(inst.BinSet) != 2 {
		t.Fatalf("bin set %v", inst.BinSet)
	}
}

func TestInstanceRequiresPrimaries(t *testing.T) {
	net := buildNet([]float64{1000}, []mec.FunctionType{{Demand: 100, Reliability: 0.9}})
	req := mec.NewRequest(1, []int{0}, 0.99, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without primaries")
		}
	}()
	NewInstance(net, req, Params{L: 1})
}

func TestInstanceHopBoundValidation(t *testing.T) {
	net := buildNet([]float64{1000, 0}, []mec.FunctionType{{Demand: 100, Reliability: 0.9}})
	req := mec.NewRequest(1, []int{0}, 0.99, 0, 0)
	req.Primaries = []int{0}
	for _, l := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("L=%d should panic", l)
				}
			}()
			NewInstance(net, req, Params{L: l})
		}()
	}
}

func TestILPOptimalOnSmallInstance(t *testing.T) {
	inst := smallInstance(1.0) // rho=1: augment as much as possible
	res, err := SolveILP(inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := solveExactBrute(inst, 1_000_000)
	if math.Abs(res.Reliability-want) > 1e-9 {
		t.Fatalf("ILP %v vs brute %v", res.Reliability, want)
	}
	if !res.Proven {
		t.Fatal("small instance should be proven optimal")
	}
	if res.Violated {
		t.Fatal("ILP must not violate capacity")
	}
}

func TestILPRespectsCapacityAndHops(t *testing.T) {
	inst := smallInstance(1.0)
	res, err := SolveILP(inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement().Validate(inst.Net, 1); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
	load := inst.load(res.PerBin)
	for _, u := range inst.BinSet {
		if load[u] > inst.Residual[u]+1e-9 {
			t.Fatalf("cloudlet %d overloaded: %v > %v", u, load[u], inst.Residual[u])
		}
	}
}

func TestExpectationAlreadyMet(t *testing.T) {
	inst := smallInstance(0.5) // initial 0.72 >= 0.5
	if !inst.ExpectationMet() {
		t.Fatal("expectation should be met by primaries")
	}
	for name, run := range solverRunners() {
		res, err := run(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := totalPlacements(res); got != 0 {
			t.Fatalf("%s placed %d secondaries despite met expectation", name, got)
		}
		if !res.MetExpectation {
			t.Fatalf("%s result does not report met expectation", name)
		}
	}
}

func TestTrimToExpectation(t *testing.T) {
	// rho reachable with one backup of function a: R_a(1)*r_b =
	// 0.96*0.9 = 0.864. Ask for 0.85: solvers should place few backups,
	// not fill all capacity.
	inst := smallInstance(0.85)
	for name, run := range solverRunners() {
		res, err := run(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.MetExpectation {
			t.Fatalf("%s failed to meet reachable expectation: %v", name, res.Reliability)
		}
		// Removing any single backup must break the expectation (minimality
		// modulo the trim's greedy order).
		counts := append([]int(nil), res.Counts...)
		for i := range counts {
			if counts[i] == 0 {
				continue
			}
			counts[i]--
			if reliability.MeetsExpectation(inst.achieved(counts), 0.85) {
				t.Fatalf("%s solution not trimmed: still meets rho after removing a backup (counts %v)", name, res.Counts)
			}
			counts[i]++
		}
	}
}

func TestHeuristicFeasibleAndReasonable(t *testing.T) {
	inst := smallInstance(1.0)
	res, err := SolveHeuristic(inst, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatal("heuristic must never violate capacity")
	}
	if err := res.Placement().Validate(inst.Net, 1); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
	ilpRes, err := SolveILP(inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability > ilpRes.Reliability+1e-9 {
		t.Fatalf("heuristic %v beats proven ILP optimum %v", res.Reliability, ilpRes.Reliability)
	}
	if res.Reliability < inst.InitialReliability {
		t.Fatal("heuristic made things worse")
	}
}

func TestRandomizedBasic(t *testing.T) {
	inst := smallInstance(1.0)
	rng := rand.New(rand.NewSource(7))
	res, err := SolveRandomized(inst, rng, RandomizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability < inst.InitialReliability-1e-12 {
		t.Fatal("randomized made things worse")
	}
	// The l-hop structure is respected by construction.
	if err := res.Placement().Validate(inst.Net, 1); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
}

func TestRandomizedRepair(t *testing.T) {
	inst := smallInstance(1.0)
	rng := rand.New(rand.NewSource(7))
	res, err := SolveRandomized(inst, rng, RandomizedOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatal("repaired solution still violates capacity")
	}
}

func TestGreedyFeasible(t *testing.T) {
	inst := smallInstance(1.0)
	res, err := SolveGreedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatal("greedy must never violate capacity")
	}
	if err := res.Placement().Validate(inst.Net, 1); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
}

func TestNoBinsNoBackups(t *testing.T) {
	// Cloudlet 0 isolated (no edges), full with primary, zero residual.
	g := graph.New(2)
	g.AddEdge(0, 1)
	net := mec.NewNetwork(g, []float64{300, 0},
		mec.NewCatalog([]mec.FunctionType{{Demand: 300, Reliability: 0.8}}))
	req := mec.NewRequest(1, []int{0}, 1.0, 0, 1)
	req.Primaries = []int{0}
	net.Consume(0, 300)
	inst := NewInstance(net, req, Params{L: 1})
	if inst.TotalItems() != 0 {
		t.Fatalf("items %d, want 0", inst.TotalItems())
	}
	for name, run := range solverRunners() {
		res, err := run(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(res.Reliability-0.8) > 1e-12 {
			t.Fatalf("%s reliability %v, want 0.8 (primaries only)", name, res.Reliability)
		}
	}
}

func TestPerfectlyReliableFunction(t *testing.T) {
	net := buildNet([]float64{1000, 1000},
		[]mec.FunctionType{{Demand: 100, Reliability: 1.0}})
	req := mec.NewRequest(1, []int{0}, 1.0, 0, 1)
	req.Primaries = []int{0}
	net.Consume(0, 100)
	inst := NewInstance(net, req, Params{L: 1})
	if inst.Positions[0].K != 0 {
		t.Fatalf("r=1 function should have no items, got K=%d", inst.Positions[0].K)
	}
	res, err := SolveILP(inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != 1 {
		t.Fatalf("reliability %v, want 1", res.Reliability)
	}
	if !res.MetExpectation {
		t.Fatal("rho=1 is met by a perfectly reliable chain")
	}
}

// randomTinyInstance builds a random instance small enough for the brute
// oracle.
func randomTinyInstance(rng *rand.Rand) *Instance {
	nAPs := 3 + rng.Intn(3)
	caps := make([]float64, nAPs)
	for i := range caps {
		if rng.Float64() < 0.7 {
			caps[i] = 400 + rng.Float64()*800
		}
	}
	if maxFloat(caps) == 0 {
		caps[0] = 800
	}
	nTypes := 1 + rng.Intn(3)
	types := make([]mec.FunctionType, nTypes)
	for i := range types {
		types[i] = mec.FunctionType{
			Demand:      200 + rng.Float64()*200,
			Reliability: 0.55 + rng.Float64()*0.4,
		}
	}
	net := buildNet(caps, types)

	L := 1 + rng.Intn(2)
	chainLen := 1 + rng.Intn(2)
	sfc := make([]int, chainLen)
	for i := range sfc {
		sfc[i] = rng.Intn(nTypes)
	}
	req := mec.NewRequest(1, sfc, 1.0, 0, nAPs-1)
	// Place primaries on random cloudlets with capacity (not consuming — a
	// tight-residual scenario is fine for the oracle as long as consistent).
	primaries := make([]int, chainLen)
	cls := net.Cloudlets()
	for i := range primaries {
		primaries[i] = cls[rng.Intn(len(cls))]
	}
	req.Primaries = primaries
	return NewInstance(net, req, Params{L: L})
}

func maxFloat(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		if v > m {
			m = v
		}
	}
	return m
}

func TestILPMatchesBruteForceOnRandomTinyInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		inst := randomTinyInstance(rng)
		if inst.TotalItems() > 8 {
			continue // keep the oracle cheap
		}
		res, err := SolveILP(inst, ILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := solveExactBrute(inst, 5_000_000)
		if math.Abs(res.Reliability-want) > 1e-9 {
			t.Fatalf("trial %d: ILP %v vs brute %v", trial, res.Reliability, want)
		}
	}
}

func TestSolverOrderingOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		inst := randomTinyInstance(rng)
		ilpRes, err := SolveILP(inst, ILPOptions{})
		if err != nil {
			t.Fatalf("trial %d ILP: %v", trial, err)
		}
		heuRes, err := SolveHeuristic(inst, HeuristicOptions{})
		if err != nil {
			t.Fatalf("trial %d heuristic: %v", trial, err)
		}
		greRes, err := SolveGreedy(inst)
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		if !ilpRes.Proven {
			continue
		}
		for _, r := range []*Result{heuRes, greRes} {
			if r.Reliability > ilpRes.Reliability+1e-9 {
				t.Fatalf("trial %d: %s %v beats ILP optimum %v", trial, r.Algorithm, r.Reliability, ilpRes.Reliability)
			}
			if r.Violated {
				t.Fatalf("trial %d: %s violated capacity", trial, r.Algorithm)
			}
		}
		rnd, err := SolveRandomized(inst, rng, RandomizedOptions{})
		if err != nil {
			t.Fatalf("trial %d randomized: %v", trial, err)
		}
		if !rnd.Violated && rnd.Reliability > ilpRes.Reliability+1e-9 {
			t.Fatalf("trial %d: feasible randomized %v beats ILP optimum %v", trial, rnd.Reliability, ilpRes.Reliability)
		}
	}
}

func TestPaperCostObjectivePacksMaxItems(t *testing.T) {
	inst := smallInstance(1.0)
	resGain, err := SolveILP(inst, ILPOptions{Objective: ObjectiveLogGain})
	if err != nil {
		t.Fatal(err)
	}
	resCost, err := SolveILP(inst, ILPOptions{Objective: ObjectivePaperCost})
	if err != nil {
		t.Fatal(err)
	}
	// Both should reach the same achieved reliability here (capacity binds
	// before gains saturate on this small instance).
	if math.Abs(resGain.Reliability-resCost.Reliability) > 1e-9 {
		t.Fatalf("objectives disagree: gain %v vs paper-cost %v", resGain.Reliability, resCost.Reliability)
	}
}

func TestUsageStats(t *testing.T) {
	inst := smallInstance(1.0)
	res, err := SolveILP(inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Usage.Max > 1+1e-9 {
		t.Fatalf("ILP usage max %v exceeds 1", res.Usage.Max)
	}
	if res.Usage.Min < 0 || res.Usage.Avg < res.Usage.Min-1e-12 || res.Usage.Avg > res.Usage.Max+1e-12 {
		t.Fatalf("usage stats inconsistent: %+v", res.Usage)
	}
}

func TestCommit(t *testing.T) {
	inst := smallInstance(1.0)
	res, err := SolveILP(inst, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before0, before1 := inst.Net.Residual(0), inst.Net.Residual(1)
	if err := res.Commit(inst.Net); err != nil {
		t.Fatal(err)
	}
	load := inst.load(res.PerBin)
	if math.Abs((before0-inst.Net.Residual(0))-load[0]) > 1e-9 {
		t.Fatalf("commit consumed %v at node 0, want %v", before0-inst.Net.Residual(0), load[0])
	}
	if math.Abs((before1-inst.Net.Residual(1))-load[1]) > 1e-9 {
		t.Fatalf("commit consumed %v at node 1, want %v", before1-inst.Net.Residual(1), load[1])
	}
}

func TestCommitRefusesViolation(t *testing.T) {
	inst := smallInstance(1.0)
	res := newResult("fake", inst)
	res.PerBin[0][0], res.Counts[0] = 100, 100 // way over capacity
	res.finalize(inst)
	if !res.Violated {
		t.Fatal("fake overload not detected")
	}
	if err := res.Commit(inst.Net); err == nil {
		t.Fatal("commit of violating solution must fail")
	}
}

func totalPlacements(r *Result) int {
	n := 0
	for _, c := range r.Counts {
		n += c
	}
	return n
}

func solverRunners() map[string]func(*Instance) (*Result, error) {
	return map[string]func(*Instance) (*Result, error){
		"ILP":       func(i *Instance) (*Result, error) { return SolveILP(i, ILPOptions{}) },
		"Heuristic": func(i *Instance) (*Result, error) { return SolveHeuristic(i, HeuristicOptions{}) },
		"Greedy":    func(i *Instance) (*Result, error) { return SolveGreedy(i) },
		"Randomized": func(i *Instance) (*Result, error) {
			return SolveRandomized(i, rand.New(rand.NewSource(42)), RandomizedOptions{})
		},
	}
}

// Theorem 6.2 analyses the heuristic's iteration count: each round matches
// every bin that still has capacity, so the number of rounds is bounded by
// the maximum per-bin slot count (far below the theorem's loose logarithmic
// bound). Sanity-check the rounds counter against total placements.
func TestHeuristicRoundsBounded(t *testing.T) {
	inst := smallInstance(1.0)
	res, err := SolveHeuristic(inst, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatal("rounds not recorded")
	}
	placed := totalPlacements(res)
	if placed > 0 && res.Rounds > placed+1 {
		t.Fatalf("rounds %d exceed placements %d + 1", res.Rounds, placed)
	}
}

// Each matching round places at most one instance per bin (the matching's
// degree constraint), so the heuristic's placements never exceed
// Rounds × |BinSet|; the trim only removes placements.
func TestHeuristicPlacementsBoundedByRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	insts := []*Instance{smallInstance(1.0), smallInstance(0.85)}
	for i := 0; i < 20; i++ {
		insts = append(insts, randomTinyInstance(rng))
	}
	for n, inst := range insts {
		res, err := SolveHeuristic(inst, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, bound := totalPlacements(res), res.Rounds*len(inst.BinSet); got > bound {
			t.Fatalf("instance %d: %d placements > %d rounds × %d bins", n, got, res.Rounds, len(inst.BinSet))
		}
	}
}

// TestHeuristicWindowLossless verifies the per-round item-window optimization
// against the literal Algorithm 2 graph (every remaining item as a node):
// both must produce identical backup counts on random instances.
func TestHeuristicWindowLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 20; trial++ {
		inst := randomTinyInstance(rng)
		fast, err := SolveHeuristic(inst, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		literal, err := SolveHeuristic(inst, HeuristicOptions{LiteralItems: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast.Counts {
			if fast.Counts[i] != literal.Counts[i] {
				t.Fatalf("trial %d: windowed %v vs literal %v", trial, fast.Counts, literal.Counts)
			}
		}
		if math.Abs(fast.Reliability-literal.Reliability) > 1e-12 {
			t.Fatalf("trial %d: reliability %v vs %v", trial, fast.Reliability, literal.Reliability)
		}
	}
}

// Uncapped mode keeps the paper's literal capacity-bounded K_i: the item
// schedule extends past float64 gain saturation, reliability is unchanged,
// and more capacity is consumed ("pack as many items as possible").
func TestUncappedModeMatchesPaperSemantics(t *testing.T) {
	build := func(uncapped bool) *Instance {
		net := buildNet(
			[]float64{4000, 4000, 0},
			[]mec.FunctionType{{Name: "a", Demand: 200, Reliability: 0.9}})
		req := mec.NewRequest(1, []int{0}, 1.0, 0, 2)
		req.Primaries = []int{0}
		net.Consume(0, 200)
		return NewInstance(net, req, Params{L: 1, Uncapped: uncapped})
	}
	capped := build(false)
	uncapped := build(true)
	if uncapped.TotalItems() <= capped.TotalItems() {
		t.Fatalf("uncapped items %d should exceed capped %d", uncapped.TotalItems(), capped.TotalItems())
	}
	// slots: (4000-200)/200=19 at node 0 + 20 at node 1 = 39 items literal.
	if uncapped.Positions[0].K != 39 {
		t.Fatalf("literal K=%d, want 39", uncapped.Positions[0].K)
	}
	rc, err := SolveILP(capped, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ru, err := SolveILP(uncapped, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rc.Reliability-ru.Reliability) > 1e-12 {
		t.Fatalf("capped %v vs uncapped %v reliability", rc.Reliability, ru.Reliability)
	}
}
