package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/workload"
)

// fig1Points are Figure 1's x-axis: SFC lengths 2 to 20 (step 2).
func fig1Points() []sweepPoint {
	var pts []sweepPoint
	for length := 2; length <= 20; length += 2 {
		pts = append(pts, sweepPoint{
			label: strconv.Itoa(length), x: float64(length),
			cfg: workload.NewDefaultConfig(), fixedLen: length, seedOff: int64(length) * 10_007,
		})
	}
	return pts
}

// Fig1 reproduces Figure 1: performance while varying the SFC length of a
// request from 2 to 20 (step 2), with residual capacity fixed at 25% and
// function reliabilities drawn from [0.8, 0.9].
func Fig1(opt Options) (*Sweep, error) {
	return runSweep(Sweep{
		Name:   "fig1",
		Title:  "varying the SFC length of a request from 2 to 20",
		XLabel: "SFC length",
	}, fig1Points(), opt)
}

// Fig2 reproduces Figure 2: performance while varying the network function
// reliability across the paper's four intervals [0.55,0.65), [0.65,0.75),
// [0.75,0.85), [0.85,0.95].
func Fig2(opt Options) (*Sweep, error) {
	var pts []sweepPoint
	for idx, iv := range []struct{ lo, hi float64 }{{0.55, 0.65}, {0.65, 0.75}, {0.75, 0.85}, {0.85, 0.95}} {
		cfg := workload.NewDefaultConfig()
		cfg.ReliabilityMin, cfg.ReliabilityMax = iv.lo, iv.hi
		pts = append(pts, sweepPoint{
			label: fmt.Sprintf("[%.2f,%.2f)", iv.lo, iv.hi), x: (iv.lo + iv.hi) / 2,
			cfg: cfg, seedOff: int64(100+idx) * 10_007,
		})
	}
	return runSweep(Sweep{
		Name:   "fig2",
		Title:  "varying the network function reliability from 0.6 to 0.9",
		XLabel: "function reliability interval midpoint",
	}, pts, opt)
}

// fig3Points are Figure 3's x-axis: residual fractions 1/16 to 1.
func fig3Points() []sweepPoint {
	var pts []sweepPoint
	labels := []string{"1/16", "1/8", "1/4", "1/2", "1"}
	for idx, f := range []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1} {
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = f
		pts = append(pts, sweepPoint{label: labels[idx], x: f, cfg: cfg, seedOff: int64(200+idx) * 10_007})
	}
	return pts
}

// Fig3 reproduces Figure 3: performance while varying the ratio of residual
// computing capacity per cloudlet across 1/16, 1/8, 1/4, 1/2, 1.
func Fig3(opt Options) (*Sweep, error) {
	return runSweep(Sweep{
		Name:   "fig3",
		Title:  "varying the residual computing capacity of each cloudlet from 1/16 to 1",
		XLabel: "residual capacity fraction",
	}, fig3Points(), opt)
}

// AblationHops sweeps the hop bound l (the paper fixes l=1; Theorems 4/6
// claim the machinery works for any fixed l, which this ablation exercises).
func AblationHops(opt Options) (*Sweep, error) {
	var pts []sweepPoint
	for l := 1; l <= 4; l++ {
		cfg := workload.NewDefaultConfig()
		cfg.HopBound = l
		pts = append(pts, sweepPoint{label: strconv.Itoa(l), x: float64(l), cfg: cfg, seedOff: int64(300+l) * 10_007})
	}
	return runSweep(Sweep{
		Name:   "hops",
		Title:  "ablation: varying the secondary-placement hop bound l",
		XLabel: "hop bound l",
	}, pts, opt)
}

// AblationObjective compares the exact log-gain ILP objective against the
// paper's literal BMCGAP cost objective (DESIGN.md §2): the same instances
// solved with both formulations, reported as pseudo-algorithms "ILP(gain)"
// and "ILP(paper-cost)", reliability and runtime side by side.
func AblationObjective(opt Options) (*Sweep, error) {
	var pts []sweepPoint
	for _, length := range []int{4, 8, 12} {
		pts = append(pts, sweepPoint{
			label: strconv.Itoa(length), x: float64(length),
			cfg: workload.NewDefaultConfig(), fixedLen: length, seedOff: int64(length) * 20_011,
		})
	}
	opt.Solvers = objectiveVariants()
	return runSweep(Sweep{
		Name:   "objective",
		Title:  "ablation: log-gain vs paper-cost ILP objective",
		XLabel: "SFC length",
	}, pts, opt)
}
