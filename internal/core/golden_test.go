package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/workload"
)

// The solver-output golden pins every registered algorithm's result on a
// fixed instance set, bit for bit: reliability and objective as raw float64
// bits, the placement as an order-independent fingerprint, and the search
// shape (nodes, LP pivots). The perf work on the pack oracle, the count
// branch-and-bound, and the simplex must not move any of these. Regenerate
// (only on an intentional semantic change) with:
//
//	go test ./internal/core -run TestSolverGolden -update-core-golden
var updateCoreGolden = flag.Bool("update-core-golden", false, "rewrite testdata/solver_golden.json from the current solvers")

type solverGoldenRecord struct {
	Instance     string  `json:"instance"`
	Solver       string  `json:"solver"`
	RelBits      uint64  `json:"rel_bits"`
	ObjBits      uint64  `json:"obj_bits"`
	PerBinHash   uint64  `json:"per_bin_hash"`
	Nodes        int     `json:"nodes"`
	LPIterations int     `json:"lp_iterations"`
	Proven       bool    `json:"proven"`
	Reliability  float64 `json:"reliability"` // readable mirror
}

// perBinFingerprint hashes a placement as "|i:u=c," per position, listing
// each placed bin in ascending cloudlet order (the order of its dense row),
// so every pinned hash reads the same as when PerBin held maps.
func perBinFingerprint(inst *Instance, perBin [][]int) uint64 {
	h := fnv.New64a()
	for i, row := range perBin {
		fmt.Fprintf(h, "|%d:", i)
		for b, c := range row {
			if c > 0 {
				fmt.Fprintf(h, "%d=%d,", inst.Positions[i].Bins[b], c)
			}
		}
	}
	return h.Sum64()
}

// goldenInstances samples exactly like the benchmark pool (same seeds, same
// lengths), so the pinned outputs cover the hard pack-oracle search paths the
// figure benchmarks exercise, not just easy instances.
func goldenInstances() (names []string, insts []*Instance) {
	for _, length := range []int{2, 8, 14} {
		for i := 0; i < 16; i++ {
			cfg := workload.NewDefaultConfig()
			rng := rand.New(rand.NewSource(1000 + int64(length) + int64(i)))
			net := cfg.Network(rng)
			// The benchmark pool draws a variable-length request before the
			// fixed-length one; the extra draw advances the rng, so it is
			// load-bearing for reproducing the exact same instances.
			_ = cfg.Request(rng, i, net.Catalog().Size())
			req := cfg.RequestWithLength(rng, i, length, net.Catalog().Size())
			workload.PlacePrimariesRandom(net, req, rng)
			names = append(names, fmt.Sprintf("len%d-seed%d", length, i))
			insts = append(insts, NewInstance(net, req, Params{L: cfg.HopBound}))
		}
	}
	hardNames, hardInsts := hardFig1Instances()
	return append(names, hardNames...), append(insts, hardInsts...)
}

// hardFig1Trials are Fig. 1 seed-42 trials whose count trees run to hundreds
// of nodes (195–1,127) with pack queries the greedy pass does not settle,
// which the benchmark-pool instances above never reach. All five are proven;
// before the pack oracle refuted by capacity, a pack budget ran dry on all
// but 14/35. Of their 133 pack queries that get past the greedy pass, the
// oracle's refutation stage settles 69, the search refutes 52 and 12 are
// witnessed; none runs dry.
var hardFig1Trials = []struct{ length, trial int }{{20, 23}, {20, 27}, {16, 30}, {16, 31}, {14, 35}}

// fig1LargestTrees are the 40-trial Fig. 1 seed-42 sweep's two largest
// count trees under depth-first search (length 18 trial 32: 20,778 nodes;
// length 20 trial 35: 5,958), which BenchmarkCountBBHard times beside
// hardFig1Trials. Best-bound search proves 20/35 in 766 nodes; 18/32 takes
// 19,019 and stays unproven, because the relaxed-tolerance prunes fire (no
// integral node's pack query runs dry). The pack oracle's refutation stage
// left both trees node for node as they were: it settles 524 of 18/32's 538
// queries past the greedy pass, where the search alone ran 278 of 772 dry.
var fig1LargestTrees = []struct{ length, trial int }{{18, 32}, {20, 35}}

// hardFig1Instances samples hardFig1Trials (see fig1TrialInstances).
func hardFig1Instances() (names []string, insts []*Instance) {
	return fig1TrialInstances(hardFig1Trials)
}

// fig1TrialInstances samples Fig. 1 trials exactly as the experiments
// harness does (seed 42, point index = SFC length).
func fig1TrialInstances(trials []struct{ length, trial int }) (names []string, insts []*Instance) {
	cfg := workload.NewDefaultConfig()
	for _, h := range trials {
		rng := rand.New(rand.NewSource(42*1_000_003 + int64(h.length)*10_007 + int64(h.trial)))
		net := cfg.Network(rng)
		req := cfg.RequestWithLength(rng, h.trial, h.length, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		names = append(names, fmt.Sprintf("fig1-len%d-trial%d", h.length, h.trial))
		insts = append(insts, NewInstance(net, req, Params{L: cfg.HopBound}))
	}
	return names, insts
}

// wireSolverGoldenInstances are requests of the serving benchmark's
// wire-solver shape: the default configuration at hop bound 2, residual 1.0
// and capacities ×60 (network seed 1), chains of 8–12 functions at ρ 0.99
// with random primaries. They are the first eight of a request stream whose
// positions form a single multi-position component, and the exact solver's
// count tree on that component closes at its root: the relaxation's counts
// are integral and pack, so no Heuristic seed runs.
func wireSolverGoldenInstances() (names []string, insts []*Instance) {
	cfg := workload.NewDefaultConfig()
	cfg.HopBound = 2
	cfg.ResidualFraction = 1.0
	cfg.CapacityMin *= 60
	cfg.CapacityMax *= 60
	cfg.Expectation = 0.99
	net := cfg.Network(rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(7))
	for i := 0; len(insts) < 8; i++ {
		req := cfg.RequestWithLength(rng, i, 8+rng.Intn(5), net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: cfg.HopBound})
		multi := 0
		for _, group := range splitComponents(inst) {
			if len(group) > 1 {
				multi++
			}
		}
		if multi == 1 {
			names = append(names, fmt.Sprintf("wire-solver-req%d", i))
			insts = append(insts, inst)
		}
	}
	return names, insts
}

const solverGoldenPath = "testdata/solver_golden.json"

func TestSolverGolden(t *testing.T) {
	var got []solverGoldenRecord
	solve := func(instance string, inst *Instance, solver string, rng *rand.Rand) {
		sv, ok := Get(solver)
		if !ok {
			t.Fatalf("solver %q not registered", solver)
		}
		res, err := sv.Solve(inst, rng)
		if err != nil {
			t.Fatalf("%s on %s: %v", solver, instance, err)
		}
		got = append(got, solverGoldenRecord{
			Instance:     instance,
			Solver:       solver,
			RelBits:      math.Float64bits(res.Reliability),
			ObjBits:      math.Float64bits(res.Objective),
			PerBinHash:   perBinFingerprint(inst, res.PerBin),
			Nodes:        res.Nodes,
			LPIterations: res.LPIterations,
			Proven:       res.Proven,
			Reliability:  res.Reliability,
		})
	}
	wireNames, wireInsts := wireSolverGoldenInstances()
	for k, inst := range wireInsts {
		solve(wireNames[k], inst, "ILP", nil)
	}
	names, insts := goldenInstances()
	for k, inst := range insts {
		for _, solver := range []string{"ILP", "Randomized", "Heuristic", "Greedy"} {
			solve(names[k], inst, solver, rand.New(rand.NewSource(9000+int64(k))))
		}
	}

	if *updateCoreGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(solverGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), solverGoldenPath)
		return
	}

	data, err := os.ReadFile(solverGoldenPath)
	if err != nil {
		t.Fatalf("golden missing (run with -update-core-golden to create): %v", err)
	}
	var want []solverGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("%s/%s drifted:\n got %+v\nwant %+v", g.Instance, g.Solver, g, w)
		}
	}
}

// unprovenBeforeCapacityBounds are the solver golden's ILP records as they
// stood before the pack oracle refuted over-full count vectors by capacity:
// all six unproven, because a pack query ran its budget dry. ObjBits is the
// objective of each record's count vector (countBB.valueOf per component),
// not the relaxation sum the search stored then, whose rounding depended on
// the search path.
var unprovenBeforeCapacityBounds = []solverGoldenRecord{
	{Instance: "len14-seed6", Solver: "ILP", RelBits: 4606975864041892642, ObjBits: 4612000058411328685, PerBinHash: 11920971367368122909, Nodes: 196, Reliability: 0.9770678151684005},
	{Instance: "len14-seed8", Solver: "ILP", RelBits: 4606963862253728181, ObjBits: 4612137564521751237, PerBinHash: 15171013395520226602, Nodes: 102, Reliability: 0.9757353490127146},
	{Instance: "fig1-len20-trial23", Solver: "ILP", RelBits: 4606370465249337944, ObjBits: 4614975284056274702, PerBinHash: 9733600945779756451, Nodes: 3645, Reliability: 0.909855047310951},
	{Instance: "fig1-len20-trial27", Solver: "ILP", RelBits: 4606469128521295082, ObjBits: 4615153568588239579, PerBinHash: 15340503539119625535, Nodes: 2130, Reliability: 0.9208088709321178},
	{Instance: "fig1-len16-trial30", Solver: "ILP", RelBits: 4606397180841571742, ObjBits: 4612875496395653803, PerBinHash: 13111302668831289206, Nodes: 1322, Reliability: 0.912821073872397},
	{Instance: "fig1-len16-trial31", Solver: "ILP", RelBits: 4606975193115535705, ObjBits: 4613151617840304992, PerBinHash: 6665459752444844668, Nodes: 1022, Reliability: 0.9769933273794705},
}

// TestGoldenUnprovenRecordsImprove checks the re-pinned golden records
// against their old selves rather than against a regenerated file: each is
// now proven, its objective did not fall, and where the objective is the
// same so is the reliability, with a witness that may differ from the old
// one (the pack search finds witnesses in its own order) but that places
// every item on a bin its position lists, within every residual.
func TestGoldenUnprovenRecordsImprove(t *testing.T) {
	names, insts := goldenInstances()
	ilp, _ := Get("ILP")
	for _, old := range unprovenBeforeCapacityBounds {
		k := slices.Index(names, old.Instance)
		if k < 0 {
			t.Fatalf("golden instance %s is gone", old.Instance)
		}
		inst := insts[k]
		res, err := ilp.Solve(inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		oldObj := math.Float64frombits(old.ObjBits)
		switch {
		case !res.Proven:
			t.Errorf("%s: still unproven", old.Instance)
		case res.Objective < oldObj:
			t.Errorf("%s: objective fell %v → %v", old.Instance, oldObj, res.Objective)
		case res.Objective == oldObj && math.Float64bits(res.Reliability) != old.RelBits:
			t.Errorf("%s: same objective, different reliability %v, was %v", old.Instance, res.Reliability, old.Reliability)
		}
		// The oracle fills a bin by sequential subtraction, so the summed
		// load may pass the residual by an ulp; Result.Violated's slack.
		load := inst.load(res.PerBin)
		for _, u := range inst.BinSet {
			if load[u] > inst.Residual[u]*(1+1e-9) {
				t.Errorf("%s: bin %d loaded %v MHz over its residual %v", old.Instance, u, load[u], inst.Residual[u])
			}
		}
		for i, row := range res.PerBin {
			if len(row) != len(inst.Positions[i].Bins) {
				t.Errorf("%s: position %d has %d bin counts for %d bins", old.Instance, i, len(row), len(inst.Positions[i].Bins))
			}
		}
	}
}

// TestILPPaperCostPricesEveryComponent pins the units of SolveILP's
// paper-cost objective: every component, single-position ones included, is
// priced with the paper-cost reward (w − c) of its own sub-instance, so the
// merged objective is the sum of what the count search reports per
// component. A single-position component priced with its log-gain value
// instead would add a reliability gain to a sum of MHz-scale rewards. Both
// sides search under the same node budget, which is deterministic, so the
// sums compare exactly while the hard paper-cost trees stay cheap.
func TestILPPaperCostPricesEveryComponent(t *testing.T) {
	const budget = 64
	names, insts := goldenInstances()
	singles := 0
	for n, inst := range insts {
		if inst.ExpectationMet() || inst.TotalItems() == 0 {
			continue
		}
		res, err := SolveILP(inst, ILPOptions{Objective: ObjectivePaperCost, MaxNodes: budget})
		if err != nil {
			t.Fatalf("%s: %v", names[n], err)
		}
		want := 0.0
		hasSingle := false
		for _, group := range splitComponents(inst) {
			hasSingle = hasSingle || len(group) == 1
			_, v, _, _ := solveCountBB(subInstance(inst, group), ObjectivePaperCost, budget)
			want += v
		}
		if hasSingle {
			singles++
		}
		if res.Objective != want {
			t.Errorf("%s: paper-cost objective %v, per-component count search sums to %v", names[n], res.Objective, want)
		}
	}
	if singles == 0 {
		t.Fatal("no golden instance has a single-position component: the test pins nothing")
	}
}
