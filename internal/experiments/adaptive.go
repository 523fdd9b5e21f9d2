package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ConvergeOptions controls adaptive trial counts.
type ConvergeOptions struct {
	// TargetCI is the desired 95% confidence half-width on the mean
	// reliability (e.g. 0.002 resolves the third decimal the figures show).
	TargetCI float64
	// Batch is how many trials are added per refinement step (default 25).
	Batch int
	// MaxTrials caps the effort (default 1000, the paper's count).
	MaxTrials int
	// Seed feeds the trial RNGs.
	Seed int64
	// Solvers selects which algorithms run (default PaperSolvers());
	// convergence is judged on the slowest-converging one.
	Solvers []core.Solver
	// Workers bounds per-batch parallelism (<=0: GOMAXPROCS).
	Workers int
}

// ConvergeResult reports an adaptively sampled point.
type ConvergeResult struct {
	Point     Point
	Trials    int
	Converged bool
	// WorstCI is the largest reliability CI95 across algorithms at the end.
	WorstCI float64
}

// ConvergePoint runs one experiment configuration with adaptive trials:
// batches are added until every algorithm's mean-reliability confidence
// interval shrinks below TargetCI, or MaxTrials is reached. This answers the
// natural reviewer question "are 100 trials enough?" empirically instead of
// by assertion.
func ConvergePoint(cfg workload.Config, fixedLen int, opt ConvergeOptions) (*ConvergeResult, error) {
	if opt.TargetCI <= 0 {
		opt.TargetCI = 0.002
	}
	if opt.Batch <= 0 {
		opt.Batch = 25
	}
	if opt.MaxTrials <= 0 {
		opt.MaxTrials = 1000
	}
	if len(opt.Solvers) == 0 {
		opt.Solvers = PaperSolvers()
	}

	accumulated := make(map[string][]trial)
	trials := 0
	converged := false
	worst := 0.0
	for trials < opt.MaxTrials {
		batchOpt := Options{
			Trials:  opt.Batch,
			Seed:    opt.Seed + int64(trials), // continue the stream
			Solvers: opt.Solvers,
			Workers: opt.Workers,
			Quiet:   true,
		}
		point := sweepPoint{label: fmt.Sprint(trials / opt.Batch), cfg: cfg, fixedLen: fixedLen, seedOff: 900 * 10_007}
		raw, err := runTrials("adaptive", "batch", []sweepPoint{point}, batchOpt)
		if err != nil {
			return nil, err
		}
		for name, ts := range raw[0] {
			accumulated[name] = append(accumulated[name], ts...)
		}
		trials += opt.Batch

		worst = 0
		for _, ts := range accumulated {
			ci := stats.Summarize(column(ts, func(t trial) float64 { return t.rel })).CI95()
			if ci > worst {
				worst = ci
			}
		}
		if worst <= opt.TargetCI {
			converged = true
			break
		}
	}
	return &ConvergeResult{
		Point:     summarize(fmt.Sprintf("adaptive(n=%d)", trials), 0, accumulated),
		Trials:    trials,
		Converged: converged,
		WorstCI:   worst,
	}, nil
}
