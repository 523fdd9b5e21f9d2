package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// ILPOptions tunes the exact solver. The zero value is the registered ILP:
// log-gain objective, default node budget. Wall-clock bounds come from the
// instance (Instance.Deadline), never from the options.
type ILPOptions struct {
	// Objective selects the formulation (default ObjectiveLogGain).
	Objective Objective
	// MaxNodes bounds the branch-and-bound tree per component (<=0: library
	// default of 100000). This budget is deterministic: same instance, same
	// node count, same incumbent.
	MaxNodes int
}

// SolveILP solves the service reliability augmentation problem exactly via
// the integer linear program of Section 4 (in the aggregated encoding of
// buildModel). The search is the count-space branch-and-bound of countbb.go,
// which exploits the problem's bin-symmetry; see that file for why the
// generic 0/1 branch-and-bound is not used directly. The solution is trimmed
// back to the reliability expectation ρ so no capacity is wasted on
// overshoot.
//
// Without an instance deadline the result is a pure function of the
// instance. With one, the search returns its best incumbent with
// Proven=false once the deadline passes — a latency guarantee bought with
// reproducibility, since the deadline can fire at a different depth on every
// run.
func SolveILP(inst *Instance, opt ILPOptions) (*Result, error) {
	start := time.Now()
	res := newResult("ILP", inst)
	if inst.ExpectationMet() || inst.TotalItems() == 0 {
		// Algorithm line 2-3: the admission already meets ρ, or there is
		// nothing to place.
		res.finalize(inst)
		res.Proven = true
		res.Runtime = time.Since(start)
		return res, nil
	}

	// Solve each independent position group on its own (see splitComponents)
	// and merge: the objective is separable, so the merged solution is the
	// global optimum iff every component was solved to optimality.
	// Every position is in exactly one group, which fills its row.
	res.Proven = true
	for _, group := range splitComponents(inst) {
		if len(group) == 1 {
			// Closed form (no search): counts as zero explored nodes.
			res.Objective += solveSinglePosition(inst, group[0], opt.Objective, res.PerBin[group[0]])
			continue
		}
		perBin, objective, nodes, proven := solveCountBB(subInstance(inst, group), opt.Objective, opt.MaxNodes)
		if perBin == nil {
			return nil, fmt.Errorf("core: ILP search found no solution on an always-feasible component")
		}
		for gi, i := range group {
			copy(res.PerBin[i], perBin[gi])
		}
		res.Objective += objective
		res.Nodes += nodes
		res.Proven = res.Proven && proven
	}
	for i, row := range res.PerBin {
		res.Counts[i] = sum(row)
	}
	// The benchmark reads this counter beside the node histogram; every
	// count-B&B node is evaluated exactly once, so it is the node total.
	obs.Default().Counter("ilp_bnb_nodes_claimed").Add(int64(res.Nodes))
	res.trimToExpectation(inst)
	res.finalize(inst)
	res.Runtime = time.Since(start)
	return res, nil
}

// newResult starts alg's result on inst with every count zero.
func newResult(alg string, inst *Instance) *Result {
	res := &Result{Algorithm: alg}
	res.PerBin, res.Counts = emptyPerBin(inst)
	return res
}

// emptyPerBin returns zero dense counts for inst, one row per position with
// one entry per bin, and a zero count per position, all backed by one
// allocation.
func emptyPerBin(inst *Instance) (perBin [][]int, counts []int) {
	L := len(inst.Positions)
	n := L
	for i := range inst.Positions {
		n += len(inst.Positions[i].Bins)
	}
	flat := make([]int, n)
	counts, flat = flat[:L:L], flat[L:]
	perBin = make([][]int, L)
	for i := range inst.Positions {
		k := len(inst.Positions[i].Bins)
		perBin[i], flat = flat[:k:k], flat[k:]
	}
	return perBin, counts
}
