package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// NoTimeout disables the ILP's wall-clock budget: the search is bounded by
// MaxNodes alone, which makes the result a pure function of the instance —
// independent of machine speed and CPU contention. The deterministic trial
// engine requires this mode (a wall-clock deadline can fire at different
// search depths on different runs, changing the returned incumbent).
const NoTimeout time.Duration = -1

// ILPOptions tunes the exact solver.
type ILPOptions struct {
	// Objective selects the formulation (default ObjectiveLogGain).
	Objective Objective
	// MaxNodes bounds the branch-and-bound tree per component (<=0: library
	// default of 100000). This budget is deterministic: same instance, same
	// node count, same incumbent.
	MaxNodes int
	// Timeout bounds the wall-clock search per component (0: 10s default;
	// NoTimeout / any negative value: no wall-clock budget). On expiry the
	// best incumbent is returned with Proven=false. A wall-clock budget
	// trades reproducibility for a latency guarantee — results may differ
	// across runs under load.
	Timeout time.Duration
}

// SolveILP solves the service reliability augmentation problem exactly via
// the integer linear program of Section 4 (in the aggregated encoding of
// buildModel). The search is the count-space branch-and-bound of countbb.go,
// which exploits the problem's bin-symmetry; see that file for why the
// generic 0/1 branch-and-bound is not used directly. The solution is trimmed
// back to the reliability expectation ρ so no capacity is wasted on
// overshoot.
func SolveILP(inst *Instance, opt ILPOptions) (*Result, error) {
	start := time.Now()
	res := &Result{Algorithm: "ILP", PerBin: emptyPerBin(inst)}
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
	res.Proven = true
	for _, group := range splitComponents(inst) {
		if len(group) == 1 {
			// Closed form (no search): counts as zero explored nodes.
			perBin, objective := solveSinglePosition(inst, group[0])
			res.PerBin[group[0]] = perBin[0]
			res.Objective += objective
			continue
		}
		perBin, objective, nodes, proven := solveCountBB(subInstance(inst, group), opt.Objective, opt.MaxNodes, opt.Timeout)
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
