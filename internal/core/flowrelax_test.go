package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/mec"
	"repro/internal/workload"
)

// newFlowRelax builds the relaxation a count search on inst under obj
// builds.
func newFlowRelax(inst *Instance, obj Objective) *flowRelax {
	rw := newRewards(inst, obj)
	return rw.relax(rw.densityOrder())
}

// TestFlowRelaxMatchesSimplexLP is the load-bearing correctness check for
// the polymatroid-greedy node relaxation: on random instances (unrestricted
// box) its optimum must equal the simplex solution of the aggregated LP
// model to tight tolerance.
func TestFlowRelaxMatchesSimplexLP(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	cfg.SFCLenMin, cfg.SFCLenMax = 3, 12
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := cfg.Network(rng)
		req := cfg.Request(rng, 0, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: 1})

		for _, obj := range []Objective{ObjectiveLogGain, ObjectivePaperCost} {
			fr := newFlowRelax(inst, obj)
			lo := make([]int, len(inst.Positions))
			hi := make([]int, len(inst.Positions))
			for i, p := range inst.Positions {
				hi[i] = p.K
			}
			got, counts, _, feasible := fr.solve(lo, hi)
			if !feasible {
				t.Fatalf("seed %d: unrestricted box infeasible", seed)
			}
			bm := buildModel(inst, obj)
			sol := bm.m.Solve()
			if sol.Status != lp.Optimal {
				t.Fatalf("seed %d: simplex status %v", seed, sol.Status)
			}
			scale := math.Max(1, math.Abs(sol.Objective))
			if math.Abs(got-sol.Objective) > 1e-6*scale {
				t.Fatalf("seed %d obj %v: flow %v vs simplex %v (counts %v)",
					seed, obj, got, sol.Objective, counts)
			}
		}
	}
}

// sampledInstances hands visit Fig. 1–3 trials, trials per point, sampled
// as the experiments harness samples them, and requests of the four serving
// shapes, requests per shape, each capped and Uncapped.
func sampledInstances(trials, requests int, visit func(name string, inst *Instance, uncapped bool)) {
	// length 0 draws the chain length as the Fig. 2 and 3 sweeps do.
	sample := func(name string, cfg workload.Config, net *mec.Network, rng *rand.Rand, length, trial int) {
		if net == nil {
			net = cfg.Network(rng)
		}
		var req *mec.Request
		if length > 0 {
			req = cfg.RequestWithLength(rng, trial, length, net.Catalog().Size())
		} else {
			req = cfg.Request(rng, trial, net.Catalog().Size())
		}
		workload.PlacePrimariesRandom(net, req, rng)
		for _, uncapped := range []bool{false, true} {
			visit(fmt.Sprintf("%s/uncapped=%v", name, uncapped), NewInstance(net, req, Params{L: cfg.HopBound, Uncapped: uncapped}), uncapped)
		}
	}
	seed := func(point, trial int) *rand.Rand {
		return rand.New(rand.NewSource(42*1_000_003 + int64(point)*10_007 + int64(trial)))
	}
	for length := 2; length <= 20; length += 2 {
		for trial := 0; trial < trials; trial++ {
			sample(fmt.Sprintf("fig1-len%d-trial%d", length, trial), workload.NewDefaultConfig(), nil, seed(length, trial), length, trial)
		}
	}
	for idx, iv := range []struct{ lo, hi float64 }{{0.55, 0.65}, {0.65, 0.75}, {0.75, 0.85}, {0.85, 0.95}} {
		cfg := workload.NewDefaultConfig()
		cfg.ReliabilityMin, cfg.ReliabilityMax = iv.lo, iv.hi
		for trial := 0; trial < trials; trial++ {
			sample(fmt.Sprintf("fig2-%d-trial%d", idx, trial), cfg, nil, seed(100+idx, trial), 0, trial)
		}
	}
	for idx, f := range []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1} {
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = f
		for trial := 0; trial < trials; trial++ {
			sample(fmt.Sprintf("fig3-%d-trial%d", idx, trial), cfg, nil, seed(200+idx, trial), 0, trial)
		}
	}
	for _, sh := range []struct {
		name                  string
		scale                 float64
		l, chainMin, chainMax int
	}{
		{"wire-default", 20, 1, 3, 6},
		{"wire-durable", 20, 1, 2, 3},
		{"wire-solver", 60, 2, 8, 12},
		{"inproc-waves", 64, 1, 3, 6},
	} {
		cfg := workload.NewDefaultConfig()
		cfg.HopBound = sh.l
		cfg.ResidualFraction = 1.0
		cfg.CapacityMin *= sh.scale
		cfg.CapacityMax *= sh.scale
		net := cfg.Network(rand.New(rand.NewSource(1)))
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < requests; i++ {
			sample(fmt.Sprintf("%s/req%d", sh.name, i), cfg, net, rng, sh.chainMin+rng.Intn(sh.chainMax-sh.chainMin+1), i)
		}
	}
}

// TestDensityOrderMatchesStableSort pins the merged density order to the
// stable sort of the position-major item list, item for item, under both
// objectives. The instances are Fig. 1–3 trials sampled as the experiments
// harness samples them and requests of the four serving shapes, each capped
// and Uncapped, with every multi-position component (the instances the count
// branch-and-bound relaxes). Paper-cost rewards tie within a position (w
// swamps the small costs) and across positions (a function type repeated in
// a chain). A schedule whose gains rise must give way to the sort.
func TestDensityOrderMatchesStableSort(t *testing.T) {
	tiesWithin, tiesAcross := 0, 0
	// falls: every position's densities fall, so the merge must have run
	// (true of every capped schedule).
	check := func(name string, inst *Instance, falls bool) {
		t.Helper()
		for _, obj := range []Objective{ObjectiveLogGain, ObjectivePaperCost} {
			fr := newFlowRelax(inst, obj)
			want := fr.sortedOrder()
			if len(fr.order) != len(want) {
				t.Fatalf("%s/%v: %d items, sort has %d", name, obj, len(fr.order), len(want))
			}
			for x, w := range want {
				if g := fr.order[x]; g.pos != w.pos || g.k != w.k {
					t.Fatalf("%s/%v: item %d is (%d,%d), sort has (%d,%d)", name, obj, x, g.pos, g.k, w.pos, w.k)
				}
				if x > 0 && obj == ObjectivePaperCost && w.density == want[x-1].density {
					if w.pos == want[x-1].pos {
						tiesWithin++
					} else {
						tiesAcross++
					}
				}
			}
			if !falls {
				continue
			}
			for i, p := range inst.Positions {
				for k := 1; k < p.K; k++ {
					if fr.item(i, k).density < fr.item(i, k+1).density {
						t.Fatalf("%s/%v: position %d's density rises at item %d", name, obj, i, k+1)
					}
				}
			}
		}
	}
	sampledInstances(3, 10, func(name string, inst *Instance, uncapped bool) {
		check(name, inst, !uncapped)
		for ci, group := range splitComponents(inst) {
			if len(group) > 1 {
				check(fmt.Sprintf("%s/component%d", name, ci), subInstance(inst, group), !uncapped)
			}
		}
	})
	if tiesWithin == 0 || tiesAcross == 0 {
		t.Fatalf("paper-cost ties within a position %d, across positions %d: want both", tiesWithin, tiesAcross)
	}

	// At r = 0.5328185096087381 the float log-gains read 0 at item 48 and
	// 1.1e-16 at item 49; an Uncapped schedule on roomy cloudlets reaches them.
	net := buildNet([]float64{30000, 30000, 0}, []mec.FunctionType{
		{Name: "a", Demand: 300, Reliability: 0.5328185096087381},
		{Name: "b", Demand: 400, Reliability: 0.9},
	})
	req := mec.NewRequest(1, []int{0, 1}, 1, 0, 2)
	req.Primaries = []int{0, 1}
	inst := NewInstance(net, req, Params{L: 1, Uncapped: true})
	if g := inst.Positions[0].Gains; g[48] <= g[47] {
		t.Fatalf("rising-gains: gains %g, %g at items 48, 49 do not rise", g[47], g[48])
	}
	check("rising-gains", inst, false)
}

// TestDensityKeyOrdersAsCompare pins densityKey to cmp.Compare, the order
// the stable sort gives, on the values where float order and bit order part:
// NaN, the infinities, the signed zeros and the denormals.
func TestDensityKeyOrdersAsCompare(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-12, 1, math.MaxFloat64, math.Inf(1),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmp.Compare(densityKey(a), densityKey(b)), cmp.Compare(a, b); got != want {
				t.Errorf("densityKey orders %v against %v as %d, cmp.Compare as %d", a, b, got, want)
			}
		}
	}
}

// TestFlowRelaxRespectsBox checks lower/upper bound handling.
func TestFlowRelaxRespectsBox(t *testing.T) {
	inst := smallInstance(1.0)
	fr := newFlowRelax(inst, ObjectiveLogGain)
	lo := []int{2, 0}
	hi := []int{3, 1}
	_, counts, _, feasible := fr.solve(lo, hi)
	if !feasible {
		t.Fatal("box should be feasible")
	}
	if counts[0] < 2-1e-9 || counts[0] > 3+1e-9 {
		t.Fatalf("count 0 = %v outside [2,3]", counts[0])
	}
	if counts[1] > 1+1e-9 {
		t.Fatalf("count 1 = %v above 1", counts[1])
	}
}

// TestFlowRelaxBoxMatchesSimplex compares the boxed relaxation against the
// simplex LP with explicit box rows on random instances.
func TestFlowRelaxBoxMatchesSimplex(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	cfg.SFCLenMin, cfg.SFCLenMax = 3, 8
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		net := cfg.Network(rng)
		req := cfg.Request(rng, 0, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: 1})
		fr := newFlowRelax(inst, ObjectiveLogGain)

		lo := make([]int, len(inst.Positions))
		hi := make([]int, len(inst.Positions))
		for i, p := range inst.Positions {
			hi[i] = p.K
			if p.K > 0 && rng.Intn(2) == 0 {
				hi[i] = rng.Intn(p.K + 1)
			}
			if hi[i] > 0 && rng.Intn(3) == 0 {
				lo[i] = rng.Intn(hi[i])
			}
		}

		got, _, _, feasible := fr.solve(lo, hi)
		bm := buildModel(inst, ObjectiveLogGain)
		for i, p := range inst.Positions {
			var terms []lp.Term
			for b := range p.Bins {
				terms = append(terms, lp.Term{Var: bm.y[i][b], Coeff: 1})
			}
			if len(terms) == 0 {
				continue
			}
			if lo[i] > 0 {
				bm.m.AddConstr(terms, lp.GE, float64(lo[i]), "lo")
			}
			if hi[i] < p.K {
				bm.m.AddConstr(terms, lp.LE, float64(hi[i]), "hi")
			}
		}
		sol := bm.m.Solve()
		switch sol.Status {
		case lp.Infeasible:
			if feasible {
				t.Fatalf("seed %d: flow feasible but simplex infeasible", seed)
			}
		case lp.Optimal:
			if !feasible {
				t.Fatalf("seed %d: flow infeasible but simplex optimal", seed)
			}
			scale := math.Max(1, math.Abs(sol.Objective))
			if math.Abs(got-sol.Objective) > 1e-6*scale {
				t.Fatalf("seed %d: flow %v vs simplex %v", seed, got, sol.Objective)
			}
		default:
			t.Fatalf("seed %d: simplex status %v", seed, sol.Status)
		}
	}
}

func TestPackCountsBasics(t *testing.T) {
	inst := smallInstance(1.0)
	// residuals: node0=700, node1=600; demands: a=300, b=400.
	// counts (2 a's, 1 b): a+a in node0 (600<=700), b in node1 (400<=600). OK.
	pb, conclusive := newPacker(inst, nil).pack([]int{2, 1}, packBudget)
	if pb == nil || !conclusive {
		t.Fatalf("feasible counts not packed: %v %v", pb, conclusive)
	}
	// counts (4, 0): K=4 but capacity 700+600 fits 2+2=4 a's? node0: 2*300,
	// node1: 2*300=600<=600. Packable.
	if pb, _ := newPacker(inst, nil).pack([]int{4, 0}, packBudget); pb == nil {
		t.Fatal("4 a-instances should pack")
	}
	// counts (3, 2): 3*300+2*400 = 1700 > 1300 total. Unpackable.
	pb, conclusive = newPacker(inst, nil).pack([]int{3, 2}, packBudget)
	if pb != nil || !conclusive {
		t.Fatalf("infeasible counts packed or inconclusive: %v %v", pb, conclusive)
	}
}

func TestPackCountsWitnessIsValid(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		net := cfg.Network(rng)
		req := cfg.Request(rng, 0, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: 1})
		// Pack the heuristic's counts (known feasible).
		res, err := SolveHeuristic(inst, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pb, conclusive := newPacker(inst, nil).pack(res.Counts, packBudget)
		if pb == nil {
			if !conclusive {
				continue // budget blown; nothing to verify
			}
			t.Fatalf("seed %d: known-feasible counts declared unpackable", seed)
		}
		// Witness must respect bins and capacities.
		load := make(map[int]float64)
		for i, row := range pb {
			total := 0
			bins := inst.Positions[i].Bins
			if len(row) != len(bins) {
				t.Fatalf("seed %d: witness has %d bin counts for %d bins", seed, len(row), len(bins))
			}
			for b, c := range row {
				total += c
				load[bins[b]] += float64(c) * inst.Positions[i].Func.Demand
			}
			if total != res.Counts[i] {
				t.Fatalf("seed %d: witness count %d != %d", seed, total, res.Counts[i])
			}
		}
		for u, l := range load {
			if l > inst.Residual[u]+1e-6 {
				t.Fatalf("seed %d: witness overloads bin %d: %v > %v", seed, u, l, inst.Residual[u])
			}
		}
	}
}

func TestSplitComponentsDisjointAndComplete(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		net := cfg.Network(rng)
		req := cfg.RequestWithLength(rng, 0, 12, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: 1})
		groups := splitComponents(inst)
		seen := make(map[int]bool)
		binOwner := make(map[int]int)
		for gi, g := range groups {
			for _, i := range g {
				if seen[i] {
					t.Fatalf("position %d in two groups", i)
				}
				seen[i] = true
				for _, u := range inst.Positions[i].Bins {
					if owner, ok := binOwner[u]; ok && owner != gi {
						t.Fatalf("bin %d shared across groups %d and %d", u, owner, gi)
					}
					binOwner[u] = gi
				}
			}
		}
		if len(seen) != len(inst.Positions) {
			t.Fatalf("groups cover %d of %d positions", len(seen), len(inst.Positions))
		}
	}
}
