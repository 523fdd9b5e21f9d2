package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/lp"
)

// RandomizedOptions tunes Algorithm 1.
type RandomizedOptions struct {
	// Repair removes items from violated cloudlets (largest item index — the
	// smallest reliability increments — first) until the solution is
	// feasible. The paper's Algorithm 1 does not repair; experiments keep
	// this off and report violations instead.
	Repair bool
}

// SolveRandomized implements Algorithm 1: relax the ILP to an LP, solve it
// with the simplex method, and round the fractional solution randomly — for
// each item (i,k), at most one cloudlet is chosen, with probabilities given
// by the fractional assignment (Constraint (8) is respected by construction;
// capacities may be violated, which the Result reports).
//
// The aggregated LP yields per-bin fractional counts ỹ(i,u) and per-item
// fractional usage z̃(i,k); the paper's per-item-per-bin probabilities are
// recovered as x̃(i,k,u) = z̃(i,k)·ỹ(i,u)/Σ_u ỹ(i,u), which preserves both
// the item marginals (Σ_u x̃ = z̃ ≤ 1) and the bin load marginals
// (Σ_k x̃ = ỹ).
func SolveRandomized(inst *Instance, rng *rand.Rand, opt RandomizedOptions) (*Result, error) {
	start := time.Now()
	res := newResult("Randomized", inst)
	if inst.ExpectationMet() || inst.TotalItems() == 0 {
		res.finalize(inst)
		res.Runtime = time.Since(start)
		return res, nil
	}
	bm := buildModel(inst, ObjectiveLogGain)
	sol := bm.m.Solve()
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: LP relaxation returned %v on an always-feasible instance", sol.Status)
	}

	roundOnce(inst, bm, sol.X, rng, res)
	if opt.Repair {
		repairViolations(inst, res)
	}
	res.trimToExpectation(inst)
	res.finalize(inst)
	res.Objective = sol.Objective
	res.LPIterations = sol.Iterations
	res.Runtime = time.Since(start)
	return res, nil
}

// roundOnce performs one randomized-rounding pass (Algorithm 1 line 5) into
// res's zero counts.
func roundOnce(inst *Instance, bm *builtModel, x []float64, rng *rand.Rand, res *Result) {
	for i, p := range inst.Positions {
		if p.K == 0 || len(p.Bins) == 0 {
			continue
		}
		// Fractional totals.
		total := 0.0
		yFrac := make([]float64, len(p.Bins))
		for b := range p.Bins {
			yFrac[b] = clampNonNeg(x[bm.y[i][b]])
			total += yFrac[b]
		}
		if total <= 1e-12 {
			continue
		}
		for k := 1; k <= p.K; k++ {
			// Canonical prefix z̃: position k covers [k-1, k] of the total.
			zk := total - float64(k-1)
			if zk <= 0 {
				break
			}
			if zk > 1 {
				zk = 1
			}
			// Choose a bin with probability x̃(i,k,u) = zk·ỹ(u)/total, or
			// no placement with probability 1 - zk.
			roll := rng.Float64()
			if roll >= zk {
				continue
			}
			pick := roll / zk * total // uniform over the ỹ mass
			acc := 0.0
			for b := range p.Bins {
				acc += yFrac[b]
				if pick < acc {
					res.PerBin[i][b]++
					res.Counts[i]++
					break
				}
			}
		}
	}
}

// repairViolations drops instances from overloaded cloudlets until feasible,
// removing the smallest-increment backups (largest counts) first.
func repairViolations(inst *Instance, res *Result) {
	load := inst.load(res.PerBin)
	for _, u := range inst.BinSet {
		for load[u] > inst.Residual[u]*(1+1e-9) {
			// Among positions using u, drop from the one with the most
			// backups overall (its marginal instance has the least gain).
			best, bestBin, bestCount := -1, -1, -1
			for i, p := range inst.Positions {
				b, ok := slices.BinarySearch(p.Bins, u)
				if ok && res.PerBin[i][b] > 0 && res.Counts[i] > bestCount { // first index wins ties: deterministic
					best, bestBin, bestCount = i, b, res.Counts[i]
				}
			}
			if best < 0 {
				break // nothing left to drop (shouldn't happen)
			}
			res.PerBin[best][bestBin]--
			res.Counts[best]--
			load[u] -= inst.Positions[best].Func.Demand
		}
	}
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
