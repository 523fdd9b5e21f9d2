package core

import (
	"time"

	"repro/internal/reliability"
)

// SolveGreedy is a marginal-gain baseline (not from the paper; used for
// ablation): repeatedly place the secondary instance with the largest
// log-reliability gain per MHz of demand among all positions with a feasible
// bin, until the expectation is met or nothing fits. It is the natural
// "no matching, no LP" strawman Algorithm 2 should beat or match.
func SolveGreedy(inst *Instance) (*Result, error) {
	start := time.Now()
	res := newResult("Greedy", inst)
	if inst.ExpectationMet() || inst.TotalItems() == 0 {
		res.finalize(inst)
		res.Runtime = time.Since(start)
		return res, nil
	}

	residual := append([]float64(nil), inst.Residual...)
	counts := res.Counts
	rho := inst.Req.Expectation

	for {
		if reliability.MeetsExpectation(inst.achieved(counts), rho) {
			break
		}
		bestPos, bestBin := -1, -1
		bestScore := 0.0
		for i := range inst.Positions {
			p := &inst.Positions[i]
			if counts[i] >= p.K {
				continue
			}
			gain := p.Gains[counts[i]] // gain of the next backup
			score := gain / p.Func.Demand
			if score <= bestScore && bestPos >= 0 {
				continue
			}
			// Cheapest feasible bin: any with residual >= demand (all bins
			// cost the same for a given item; pick the emptiest to balance).
			bin := -1
			var binRes float64
			for b, u := range p.Bins {
				if residual[u] >= p.Func.Demand && residual[u] > binRes {
					bin = b
					binRes = residual[u]
				}
			}
			if bin < 0 {
				continue
			}
			bestPos, bestBin, bestScore = i, bin, score
		}
		if bestPos < 0 {
			break
		}
		residual[inst.Positions[bestPos].Bins[bestBin]] -= inst.Positions[bestPos].Func.Demand
		res.PerBin[bestPos][bestBin]++
		counts[bestPos]++
	}

	res.trimToExpectation(inst)
	res.finalize(inst)
	res.Runtime = time.Since(start)
	return res, nil
}
