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
	res := &Result{Algorithm: "ILP"}
	if inst.ExpectationMet() || inst.TotalItems() == 0 {
		// Algorithm line 2-3: the admission already meets ρ, or there is
		// nothing to place.
		res.PerBin = emptyPerBin(inst)
		res.finalize(inst)
		res.Proven = true
		res.Runtime = time.Since(start)
		return res, nil
	}

	// Solve each independent position group on its own (see splitComponents)
	// and merge: the objective is separable, so the merged solution is the
	// global optimum iff every component was solved to optimality.
	// Every position is in exactly one group, which fills its map.
	res.Proven = true
	res.PerBin = make([]map[int]int, len(inst.Positions))
	for _, group := range splitComponents(inst) {
		if len(group) == 1 {
			// Closed form (no search): counts as zero explored nodes.
			perBin, objective := solveSinglePosition(inst, group[0], opt.Objective)
			res.PerBin[group[0]] = perBin[0]
			res.Objective += objective
			continue
		}
		perBin, objective, nodes, proven := solveCountBB(subInstance(inst, group), opt.Objective, opt.MaxNodes)
		if perBin == nil {
			return nil, fmt.Errorf("core: ILP search found no solution on an always-feasible component")
		}
		for gi, i := range group {
			res.PerBin[i] = perBin[gi]
		}
		res.Objective += objective
		res.Nodes += nodes
		res.Proven = res.Proven && proven
	}
	// The benchmark reads this counter beside the node histogram; every
	// count-B&B node is evaluated exactly once, so it is the node total.
	obs.Default().Counter("ilp_bnb_nodes_claimed").Add(int64(res.Nodes))
	res.trimToExpectation(inst)
	res.finalize(inst)
	res.Runtime = time.Since(start)
	return res, nil
}

func emptyPerBin(inst *Instance) []map[int]int {
	pb := make([]map[int]int, len(inst.Positions))
	for i := range pb {
		pb[i] = make(map[int]int)
	}
	return pb
}
