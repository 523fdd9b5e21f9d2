package core

import (
	"sort"

	"repro/internal/mec"
)

// selectMaxCands bounds the exact branch-and-bound over admission
// candidates; above it only the greedy pass runs (the window sizes the
// serving layer uses stay well below this).
const selectMaxCands = 24

// selectMaxPackCalls bounds the number of packing-oracle queries one
// SelectAdmission call may issue, keeping scarcity-mode admission latency
// predictable. Exhaustion degrades to the greedy incumbent, never to an
// error.
const selectMaxPackCalls = 512

// AdmissionCandidate describes one queued request competing for admission
// under scarcity: its objective value (tenant weight × estimated
// reliability log-gain) and the capacity demands of its primary VNF
// instances.
type AdmissionCandidate struct {
	// Value is the knapsack objective contribution of admitting this
	// candidate. Non-positive values are never selected.
	Value float64
	// Demands lists the capacity demand of each VNF instance the candidate
	// would place (one entry per chain position).
	Demands []float64
}

// SelectAdmission solves the scarcity-mode admission knapsack: pick the
// subset of candidates maximizing total Value such that all selected
// candidates' demands pack integrally into the residual capacities of the
// given bins. It reuses the BMCGAP packing oracle (packCountsIn and its
// shared failure table) as the feasibility test, so no new solver is
// involved.
//
// residual is indexed by node id and bins lists the usable bin node ids
// (the cloudlet set). packBudget bounds the oracle's search nodes per
// feasibility query (<=0 selects the incumbent budget); a query that
// exhausts its budget is treated as infeasible, which keeps the result
// deterministic and conservative.
//
// The search is a greedy descent in value order followed by a bounded exact
// branch-and-bound (value-ordered include/exclude with an optimistic
// remaining-value bound) when the candidate count is small. Returns the
// selected candidate indices in ascending order. The result is a pure
// function of the arguments.
func SelectAdmission(residual []float64, bins []int, cands []AdmissionCandidate, packBudget int) []int {
	if len(cands) == 0 || len(bins) == 0 {
		return nil
	}
	if packBudget <= 0 {
		packBudget = packIncumbentBudget
	}
	order := make([]int, 0, len(cands))
	for i, c := range cands {
		if c.Value > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := cands[order[a]].Value, cands[order[b]].Value
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})
	if len(order) == 0 {
		return nil
	}

	ft := newFailTable(1 + len(bins))
	calls := 0
	// feasible reports whether the demands of sel plus (optionally) extra
	// pack into the residual bins. Budget exhaustion — of the per-query
	// node budget or the per-call query budget — counts as infeasible.
	feasible := func(sel []int, extra int) bool {
		if calls >= selectMaxPackCalls {
			return false
		}
		calls++
		var all []float64
		for _, i := range sel {
			all = append(all, cands[i].Demands...)
		}
		if extra >= 0 {
			all = append(all, cands[extra].Demands...)
		}
		if len(all) == 0 {
			return true
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))
		inst := &Instance{Residual: residual, BinSet: bins}
		var counts []int
		for _, d := range all {
			if n := len(inst.Positions); n > 0 && inst.Positions[n-1].Func.Demand == d {
				counts[n-1]++
				continue
			}
			inst.Positions = append(inst.Positions, Position{
				Index: len(inst.Positions),
				Func:  mec.FunctionType{Demand: d},
				Bins:  bins,
			})
			counts = append(counts, 1)
		}
		perBin, _ := packCountsIn(inst, counts, packBudget, ft)
		return perBin != nil
	}

	// Greedy incumbent: admit in value order whenever still packable.
	var best []int
	bestVal := 0.0
	for _, i := range order {
		if feasible(best, i) {
			best = append(best, i)
			bestVal += cands[i].Value
		}
	}

	if len(order) <= selectMaxCands {
		remTotal := 0.0
		for _, i := range order {
			remTotal += cands[i].Value
		}
		const eps = 1e-9
		cur := make([]int, 0, len(order))
		var dfs func(k int, curVal, remVal float64)
		dfs = func(k int, curVal, remVal float64) {
			if curVal > bestVal+eps {
				bestVal = curVal
				best = append(best[:0:0], cur...)
			}
			if k == len(order) || curVal+remVal <= bestVal+eps {
				return
			}
			i := order[k]
			v := cands[i].Value
			if feasible(cur, i) {
				cur = append(cur, i)
				dfs(k+1, curVal+v, remVal-v)
				cur = cur[:len(cur)-1]
			}
			dfs(k+1, curVal, remVal-v)
		}
		dfs(0, 0, remTotal)
	}

	sort.Ints(best)
	return best
}
