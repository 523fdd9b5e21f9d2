package experiments

import (
	"math/rand"

	"repro/internal/core"
)

// objectiveVariants are the two ILP formulations of the ablation, wrapped as
// pseudo-solvers so they flow through the same engine-backed harness as the
// registered algorithms.
func objectiveVariants() []core.Solver {
	return []core.Solver{
		core.NewSolverFunc("ILP(gain)", func(inst *core.Instance, _ *rand.Rand) (*core.Result, error) {
			return core.SolveILP(inst, core.ILPOptions{Objective: core.ObjectiveLogGain})
		}),
		core.NewSolverFunc("ILP(paper-cost)", func(inst *core.Instance, _ *rand.Rand) (*core.Result, error) {
			return core.SolveILP(inst, core.ILPOptions{Objective: core.ObjectivePaperCost})
		}),
	}
}
