package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/workload"
)

// TestCountBBMatchesGenericILP cross-checks the specialized count-space
// branch-and-bound against the generic 0/1 solver on the same aggregated
// model: both must find the same optimal objective on instances small enough
// for the generic search to finish (the generic solver drowns in bin
// symmetry on larger ones — the reason countBB exists).
func TestCountBBMatchesGenericILP(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = 1.0 / 8 // keep item counts small
	checked := 0
	for seed := int64(0); seed < 40 && checked < 12; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		net := cfg.Network(rng)
		req := cfg.RequestWithLength(rng, 0, 3, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: 1})
		if inst.TotalItems() == 0 || inst.TotalItems() > 14 {
			continue
		}
		checked++

		perBin, objective, nodes, proven := solveCountBB(inst, ObjectiveLogGain, 0)
		if perBin == nil || !proven {
			t.Fatalf("seed %d: countBB failed or unproven on a tiny instance", seed)
		}
		if nodes <= 0 {
			t.Fatalf("seed %d: countBB reported %d explored nodes", seed, nodes)
		}

		bm := buildModel(inst, ObjectiveLogGain)
		r, err := ilp.Solve(bm.m, bm.intVars, ilp.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatalf("seed %d: generic ILP: %v", seed, err)
		}
		if r.Status != lp.Optimal || !r.Proven {
			t.Fatalf("seed %d: generic ILP status %v proven %v", seed, r.Status, r.Proven)
		}
		if math.Abs(objective-r.Objective) > 1e-6 {
			t.Fatalf("seed %d: countBB %v vs generic %v", seed, objective, r.Objective)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d instances were small enough; loosen the sampler", checked)
	}
}

// bruteStates bounds solveExactBrute's enumeration from above: the product
// over positions of the ways to spread up to K_i items over its bins.
func bruteStates(inst *Instance) float64 {
	states := 1.0
	for _, p := range inst.Positions {
		ways := 1.0 // C(K+B, B)
		for b := 1; b <= len(p.Bins); b++ {
			ways = ways * float64(p.K+b) / float64(b)
		}
		states *= ways
	}
	return states
}

// FuzzCountBBMatchesBrute checks the count branch-and-bound, pack oracle and
// flow relaxation included, against two independent answers on tiny
// seed-derived instances (at most 3 positions and 14 items): exhaustive
// enumeration and the generic integer solver (internal/ilp) on the
// aggregated model. The search must prove its answer, the answer must be a
// feasible packing, its chain reliability must equal the enumerated optimum,
// and under both objectives its objective must equal the generic solver's
// proven optimum. The seed corpus is pinned under
// testdata/fuzz/FuzzCountBBMatchesBrute; the added seeds 500–512 are
// TestCountBBMatchesGenericILP's instances (508 is over its item cap and
// skips here too).
func FuzzCountBBMatchesBrute(f *testing.F) {
	f.Add(int64(3), int64(2), int64(1), int64(0))
	f.Add(int64(5), int64(2), int64(0), int64(1))
	for s := int64(0); s <= 12; s++ {
		f.Add(500+s, int64(2), int64(1), int64(0))
	}
	for _, s := range upperCornerFuzzSeeds {
		f.Add(s[0], s[1], s[2], s[3])
	}
	f.Fuzz(func(t *testing.T, seed, sfcLen, sixteenths, hops int64) {
		inst := fuzzCountBBInstance(seed, sfcLen, sixteenths, hops)
		if inst.TotalItems() == 0 || inst.TotalItems() > 14 || bruteStates(inst) > 2e6 {
			t.Skip("instance too large for the enumeration oracle")
		}

		for _, obj := range []Objective{ObjectiveLogGain, ObjectivePaperCost} {
			perBin, objective, _, proven := solveCountBB(inst, obj, 0)
			if perBin == nil || !proven {
				t.Fatalf("%v: countBB failed or unproven on a tiny instance", obj)
			}
			bm := buildModel(inst, obj)
			r, err := ilp.Solve(bm.m, bm.intVars, ilp.Options{MaxNodes: 100000})
			if err != nil {
				t.Fatalf("%v: generic ILP: %v", obj, err)
			}
			if r.Status != lp.Optimal || !r.Proven {
				t.Fatalf("%v: generic ILP status %v proven %v", obj, r.Status, r.Proven)
			}
			tol := 1e-6
			if obj == ObjectivePaperCost {
				tol *= math.Max(1, math.Abs(r.Objective))
			}
			if math.Abs(objective-r.Objective) > tol {
				t.Fatalf("%v: countBB objective %v, generic ILP %v", obj, objective, r.Objective)
			}
			counts := make([]int, len(inst.Positions))
			for i, row := range perBin {
				bins := inst.Positions[i].Bins
				if len(row) != len(bins) {
					t.Fatalf("%v: position %d has %d bin counts for %d bins", obj, i, len(row), len(bins))
				}
				for b, c := range row {
					if c < 0 {
						t.Fatalf("%v: position %d places %d instances on cloudlet %d", obj, i, c, bins[b])
					}
					counts[i] += c
				}
				if counts[i] > inst.Positions[i].K {
					t.Fatalf("%v: position %d holds %d items, schedule has %d", obj, i, counts[i], inst.Positions[i].K)
				}
			}
			for u, mhz := range inst.load(perBin) {
				if mhz > inst.Residual[u]+1e-6 {
					t.Fatalf("%v: cloudlet %d loaded %v MHz over residual %v", obj, u, mhz, inst.Residual[u])
				}
			}
			if obj == ObjectivePaperCost {
				continue // packs the most items, not the most reliability
			}
			want := solveExactBrute(inst, 5_000_000)
			if got := inst.achieved(counts); math.Abs(got-want) > 1e-9*want {
				t.Fatalf("countBB reliability %v, enumeration %v (counts %v)", got, want, counts)
			}
		}
	})
}

// fuzzCountBBInstance samples FuzzCountBBMatchesBrute's instance: a chain
// of 1–3 functions on the default network at residual 1/16–4/16 and hop
// bound 1 or 2.
func fuzzCountBBInstance(seed, sfcLen, sixteenths, hops int64) *Instance {
	abs := func(v int64) int64 {
		if v < 0 {
			return -(v + 1)
		}
		return v
	}
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = float64(1+abs(sixteenths)%4) / 16
	rng := rand.New(rand.NewSource(seed))
	net := cfg.Network(rng)
	req := cfg.RequestWithLength(rng, 0, int(1+abs(sfcLen)%3), net.Catalog().Size())
	workload.PlacePrimariesRandom(net, req, rng)
	return NewInstance(net, req, Params{L: int(1 + abs(hops)%2)})
}

// upperCornerFuzzSeeds are FuzzCountBBMatchesBrute inputs at the roomiest
// residual it draws (4/16) whose upper corner packs: two or three positions
// with items, each at its full schedule, so the count search ends at its
// first node and the corner path is what the enumeration and the generic ILP
// check.
var upperCornerFuzzSeeds = [][4]int64{
	{0, 1, 3, 0}, {0, 1, 3, 1}, {4, 1, 3, 1}, {5, 1, 3, 0}, {6, 2, 3, 0}, {16, 2, 3, 0},
}

// TestUpperCornerFuzzSeedsPack keeps upperCornerFuzzSeeds what they are for:
// each is small enough for the enumeration oracle, has two or more positions
// with items, and packs at its upper corner.
func TestUpperCornerFuzzSeedsPack(t *testing.T) {
	for _, s := range upperCornerFuzzSeeds {
		inst := fuzzCountBBInstance(s[0], s[1], s[2], s[3])
		if inst.TotalItems() > 14 || bruteStates(inst) > 2e6 {
			t.Fatalf("seed %v: too large for the enumeration oracle", s)
		}
		hi, filled := make([]int, len(inst.Positions)), 0
		for i, p := range inst.Positions {
			if hi[i] = p.K; p.K > 0 {
				filled++
			}
		}
		bb := newCountBB(inst, ObjectiveLogGain, 0)
		if filled < 2 || !bb.upperCorner(hi, bb.densityOrder()) {
			t.Fatalf("seed %v: %d positions with items, upper corner %v does not pack", s, filled, hi)
		}
	}
}

// TestPaperRewardMatchesModel pins the count branch-and-bound's paper-cost
// item reward to buildModel's dominating reward: item for item the same
// float, and — read back through the model itself — a placement's LP
// objective with the y variables pinned to it equals valueOf of its counts.
func TestPaperRewardMatchesModel(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		net := cfg.Network(rng)
		req := cfg.RequestWithLength(rng, 0, 6, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: 1})
		bb := newCountBB(inst, ObjectivePaperCost, 0)
		w := paperCostDominator(inst)
		for i, p := range inst.Positions {
			for k := 1; k <= p.K; k++ {
				if got, want := bb.paperReward(i, k), w-p.Costs[k-1]; got != want {
					t.Fatalf("seed %d: reward(%d,%d) = %v, model prices it %v", seed, i, k, got, want)
				}
			}
		}

		res, err := SolveHeuristic(inst, HeuristicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bm := buildModel(inst, ObjectivePaperCost)
		counts := make([]int, len(inst.Positions))
		for i, p := range inst.Positions {
			for b := range p.Bins {
				c := res.PerBin[i][b]
				counts[i] += c
				bm.m.SetVarBounds(bm.y[i][b], float64(c), float64(c))
			}
		}
		sol := bm.m.Solve()
		if sol.Status != lp.Optimal {
			t.Fatalf("seed %d: pinned model status %v", seed, sol.Status)
		}
		if got := bb.valueOf(counts); math.Abs(got-sol.Objective) > 1e-9*math.Max(1, sol.Objective) {
			t.Fatalf("seed %d: valueOf(%v) = %v, pinned model objective %v", seed, counts, got, sol.Objective)
		}
	}
}

// solveExactBrute exhaustively enumerates all feasible secondary placements
// and returns the maximum achievable chain reliability (ignoring ρ — the
// uncapped optimum). It is exponential and exists purely as a test oracle
// for small instances; it panics if the search space exceeds maxStates.
func solveExactBrute(inst *Instance, maxStates int) float64 {
	states := 0
	best := math.Inf(-1)

	residual := append([]float64(nil), inst.Residual...)
	counts := make([]int, len(inst.Positions))

	var rec func(pos int)
	rec = func(pos int) {
		states++
		if states > maxStates {
			panic(fmt.Sprintf("core: brute-force oracle exceeded %d states", maxStates))
		}
		if pos == len(inst.Positions) {
			if u := inst.achieved(counts); u > best {
				best = u
			}
			return
		}
		p := &inst.Positions[pos]
		// Enumerate per-bin allocations for this position recursively.
		var alloc func(b int, total int)
		alloc = func(b int, total int) {
			if b == len(p.Bins) || total == p.K {
				counts[pos] = total
				rec(pos + 1)
				return
			}
			u := p.Bins[b]
			maxHere := int(math.Floor(residual[u] / p.Func.Demand))
			if rem := p.K - total; maxHere > rem {
				maxHere = rem
			}
			for c := 0; c <= maxHere; c++ {
				residual[u] -= float64(c) * p.Func.Demand
				alloc(b+1, total+c)
				residual[u] += float64(c) * p.Func.Demand
			}
		}
		alloc(0, 0)
		counts[pos] = 0
	}
	rec(0)
	return best
}
