package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mec"
)

// Demands and residuals of the pack fuzz instances. The exact sets are
// multiples of 1/2, so every sum, difference and multiple the oracle forms is
// exact and enumeration can demand agreement at equality (an exact multiple
// fills its bin to the last MHz). The inexact sets are decimals whose
// multiples land an ulp either side of the decimal product.
var (
	packExactDemands     = []float64{62.5, 100, 150, 200, 250, 300}
	packExactResiduals   = []float64{0, 99, 100, 150, 200, 250, 300, 400, 450, 500, 600, 750, 900}
	packInexactDemands   = []float64{100.1, 200.1, 233.1, 150}
	packInexactResiduals = []float64{0, 300.3, 400.2, 600.3, 699.3, 466.2, 450}
)

// tinyPackInstance draws a pack query from seed: up to 4 positions over up to
// 3 bins (node ids spread out so the bin-slot mapping is exercised), counts up
// to 3, each position listing a random subset of the bins. Half the residuals
// are exact multiples m·d (m = 1..3) of a drawn demand, computed in floating
// point as the oracle would see them.
func tinyPackInstance(seed int64, inexact bool) (*Instance, []int) {
	rng := rand.New(rand.NewSource(seed))
	demands, residuals := packExactDemands, packExactResiduals
	if inexact {
		demands, residuals = packInexactDemands, packInexactResiduals
	}
	nPos, nBins := 1+rng.Intn(4), 1+rng.Intn(3)
	inst := &Instance{Residual: make([]float64, 3*nBins)}
	for b := 0; b < nBins; b++ {
		inst.BinSet = append(inst.BinSet, 3*b+1)
	}
	counts := make([]int, nPos)
	for i := 0; i < nPos; i++ {
		p := Position{Index: i, Func: mec.FunctionType{Demand: demands[rng.Intn(len(demands))]}}
		for _, u := range inst.BinSet {
			if rng.Intn(3) > 0 {
				p.Bins = append(p.Bins, u)
			}
		}
		inst.Positions = append(inst.Positions, p)
		counts[i] = rng.Intn(4)
	}
	for _, u := range inst.BinSet {
		if rng.Intn(2) == 0 {
			inst.Residual[u] = residuals[rng.Intn(len(residuals))]
			continue
		}
		d := inst.Positions[rng.Intn(nPos)].Func.Demand
		r := 0.0
		for m := 1 + rng.Intn(3); m > 0; m-- {
			if rng.Intn(2) == 0 {
				r += d // a summed multiple ...
			} else {
				r = d * float64(1+rng.Intn(3)) // ... or a product
			}
		}
		inst.Residual[u] = r
	}
	return inst, counts
}

// bruteSequentialPacks enumerates every spread of each position's items over
// its bins and fills each bin the way the oracle's search does: positions in
// order, each item checked (residual >= demand) and subtracted in turn, from a
// fresh copy of residual (no take-and-return, so no drift).
func bruteSequentialPacks(inst *Instance, order, counts []int, residual []float64) bool {
	var place func(oi int, res []float64) bool
	place = func(oi int, res []float64) bool {
		if oi == len(order) {
			return true
		}
		p := &inst.Positions[order[oi]]
		var spread func(b, left int, res []float64) bool
		spread = func(b, left int, res []float64) bool {
			if left == 0 {
				return place(oi+1, res)
			}
			if b == len(p.Bins) {
				return false
			}
			next := append([]float64(nil), res...)
			for c := 0; c <= left; c++ {
				if c > 0 {
					u := p.Bins[b]
					if next[u] < p.Func.Demand {
						return false
					}
					next[u] -= p.Func.Demand
				}
				if spread(b+1, left-c, append([]float64(nil), next...)) {
					return true
				}
			}
			return false
		}
		return spread(0, counts[order[oi]], res)
	}
	return place(0, append([]float64(nil), residual...))
}

// rootCapacityViolated evaluates capacityFits' two bounds from their
// definition, on the untouched residuals: for every suffix S of order, the
// bins some position of S lists and fits, and each such bin's smallest
// fitting demand.
func rootCapacityViolated(inst *Instance, order, counts []int) bool {
	for k := range order {
		needMHz, capMHz := 0.0, 0.0
		needItems, capItems := 0, 0
		for _, j := range order[k:] {
			needMHz += float64(counts[j]) * inst.Positions[j].Func.Demand
			needItems += counts[j]
		}
		for _, u := range inst.BinSet {
			m, r := math.Inf(1), inst.Residual[u]
			for _, j := range order[k:] {
				d := inst.Positions[j].Func.Demand
				for _, v := range inst.Positions[j].Bins {
					if v == u && d <= r && d < m {
						m = d
					}
				}
			}
			if !math.IsInf(m, 1) {
				capMHz += r
				capItems += int(r/m + 1e-9)
			}
		}
		if needItems > capItems || needMHz > capMHz*(1+1e-9) {
			return true
		}
	}
	return false
}

// describePack renders a pack query for a failure message.
func describePack(inst *Instance, counts []int) string {
	var b strings.Builder
	for i, p := range inst.Positions {
		fmt.Fprintf(&b, "pos %d: %d × %v MHz on bins %v; ", i, counts[i], p.Func.Demand, p.Bins)
	}
	for _, u := range inst.BinSet {
		fmt.Fprintf(&b, "r[%d]=%v ", u, inst.Residual[u])
	}
	return b.String()
}

// FuzzPackMatchesBrute checks the pack oracle against exhaustive enumeration
// on tiny instances (at most 4 positions, 3 bins, 3 items a position), once
// as packCountsIn answers (greedy pass first) and once by its depth-first
// search alone, which the greedy pass would otherwise hide on most packable
// vectors:
//
//   - it concludes (these searches are far inside the budget);
//   - a witness places every item on a listed bin within every residual;
//   - it never refutes a packable vector, and a refutation means enumeration
//     finds nothing. On the exact value sets the two agree exactly; on the
//     inexact ones, where the search's take-and-return may drift a residual
//     by an ulp, enumeration is run with residuals 1e-9 below and above;
//   - when the capacity bounds, computed here from their definition over the
//     suffixes of the search's position order, fail at the root, the oracle
//     refutes before its first search node;
//   - the refutation stage never refutes a vector that enumeration packs with
//     the search's own arithmetic (exact residuals, sequential fill): not
//     from λ = d, λ = 1 or three multiplier vectors drawn from the seed, and
//     not by its own subgradient steps.
//
// The seed corpus is pinned under testdata/fuzz/FuzzPackMatchesBrute. A
// greedy knapsack in place of the stage's fill (an under-estimate of K_u)
// fails seed-stage-knapsack and seed-stage-knapsack-decimal, and a refuting
// comparison without its margin fails seed-stage-knapsack. Bins without
// the stage's capacity margin pass here, because no sequential fill of these
// value sets fits where the knapsack's own arithmetic does not;
// TestRefutationNeverDisprovesAWitness catches that mutant.
func FuzzPackMatchesBrute(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Fuzz(func(t *testing.T, seed int64, inexact bool) {
		inst, counts := tinyPackInstance(seed, inexact)
		slack := 0.0
		if inexact {
			slack = 1e-9
		}
		nudged := func(f float64) []float64 {
			r := append([]float64(nil), inst.Residual...)
			for u := range r {
				r[u] *= f
			}
			return r
		}
		// Enumerate, and evaluate the capacity bounds, in the order the
		// search places positions, not the greedy pass's demand order.
		pk := newPacker(inst, newFailTable(1+len(inst.BinSet)))
		pk.setQuery(counts, packBudget)
		pk.search()
		order := append([]int(nil), pk.order...)
		packable := bruteSequentialPacks(inst, order, counts, nudged(1-slack))
		possible := bruteSequentialPacks(inst, order, counts, nudged(1+slack))
		violated := rootCapacityViolated(inst, order, counts)

		if bruteSequentialPacks(inst, order, counts, inst.Residual) {
			lams := [][]float64{pk.demand, make([]float64, len(counts))}
			rng := rand.New(rand.NewSource(seed))
			for i := range counts {
				lams[1][i] = 1
			}
			for range 3 {
				lam := make([]float64, len(counts))
				for i := range lam {
					lam[i] = rng.Float64()
				}
				lams = append(lams, lam)
			}
			rf := newRefuter(inst, pk.demand)
			for _, lam := range lams {
				rf.begin()
				rf.build(counts)
				if gap, _ := rf.eval(counts, lam, true); gap < 0 {
					t.Fatalf("multipliers %v refute a vector the search packs: %s", lam, describePack(inst, counts))
				}
			}
			rf.begin()
			if rf.lagrange(counts) {
				t.Fatalf("the subgradient refutes a vector the search packs: %s", describePack(inst, counts))
			}
		}

		for _, searchOnly := range []bool{false, true} {
			var perBin [][]int
			var conclusive bool
			if searchOnly {
				pk.setQuery(counts, packBudget)
				perBin, conclusive = pk.search()
			} else {
				perBin, conclusive = pk.pack(counts, packBudget)
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("search only %v: %s: %s", searchOnly, fmt.Sprintf(format, args...), describePack(inst, counts))
			}
			if !conclusive {
				fail("search ran its budget dry")
			}
			if perBin != nil {
				load := make([]float64, len(inst.Residual))
				for i, row := range perBin {
					bins := inst.Positions[i].Bins
					if len(row) != len(bins) {
						fail("position %d has %d bin counts for %d bins", i, len(row), len(bins))
					}
					n := 0
					for b, c := range row {
						if c < 0 {
							fail("position %d places %d items on bin %d", i, c, bins[b])
						}
						n += c
						load[bins[b]] += float64(c) * inst.Positions[i].Func.Demand
					}
					if n != counts[i] {
						fail("position %d: witness places %d items, query asked %d", i, n, counts[i])
					}
				}
				for u, l := range load {
					if l > inst.Residual[u]*(1+slack) {
						fail("witness loads bin %d with %v MHz over residual %v", u, l, inst.Residual[u])
					}
				}
			}
			if packable && perBin == nil {
				fail("refuted a packable vector")
			}
			if !possible && perBin != nil {
				fail("witness for a vector enumeration cannot pack")
			}
			if violated && searchOnly && (perBin != nil || pk.nodes != 0) {
				fail("capacity bound fails at the root, yet the search visited %d nodes", pk.nodes)
			}
		}
	})
}
