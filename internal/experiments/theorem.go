package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// TheoremPoint is one row of the Theorem 5.2 validation table.
type TheoremPoint struct {
	Label string
	// ObjRatio is the randomized algorithm's objective (Σ -log R_i, the
	// paper's optimization objective (5)) divided by the ILP optimum —
	// Theorem 5.2 bounds its expectation by 1+β ≤ 2.
	ObjRatio stats.Summary
	// RelRatio is achieved reliability relative to the ILP optimum.
	RelRatio stats.Summary
	// ViolationFactor is, per trial, the worst cloudlet's load divided by
	// its residual capacity — Theorem 5.2 bounds it by 2 w.h.p.
	ViolationFactor stats.Summary
	// ViolationRate is the fraction of trials with any violation.
	ViolationRate float64
	// Beyond2Rate is the fraction of trials where some cloudlet exceeded
	// twice its capacity (the theorem's low-probability event).
	Beyond2Rate float64
}

// TheoremSweep is the result of TheoremCheck.
type TheoremSweep struct {
	Points []TheoremPoint
	Trials int
	Seed   int64
}

// TheoremCheck empirically validates Theorem 5.2's two claims about the
// randomized algorithm — the constant-factor objective approximation and the
// ≤2× computing-capacity violation — across SFC lengths. Every trial solves
// its instance with the ILP and then with Randomized (opt.Solvers is
// ignored), and the ratios pair the two records of the same trial.
func TheoremCheck(opt Options) (*TheoremSweep, error) {
	opt = opt.withDefaults()
	opt.Solvers = mustSolvers("ILP", "Randomized")
	var pts []sweepPoint
	for _, length := range []int{4, 8, 12, 16} {
		pts = append(pts, sweepPoint{
			label: strconv.Itoa(length), x: float64(length),
			cfg: workload.NewDefaultConfig(), fixedLen: length, seedOff: int64(length) * 40_009,
		})
	}
	raw, err := runTrials("theorem", "SFC length", pts, opt)
	if err != nil {
		return nil, err
	}
	out := &TheoremSweep{Trials: opt.Trials, Seed: opt.Seed}
	for p, pt := range pts {
		var objRatios, relRatios, violFactors []float64
		nViol, nBeyond2 := 0, 0
		for t, rnd := range raw[p]["Randomized"] {
			ilp := raw[p]["ILP"][t]
			// Objective (5) is Σ -log R_i = -log(chain reliability).
			if objILP := -math.Log(ilp.rel); objILP > 1e-12 {
				objRatios = append(objRatios, -math.Log(rnd.rel)/objILP)
			}
			if ilp.rel > 0 {
				relRatios = append(relRatios, rnd.rel/ilp.rel)
			}
			violFactors = append(violFactors, math.Max(1, rnd.uMax))
			if rnd.violated {
				nViol++
			}
			if rnd.uMax > 2 {
				nBeyond2++
			}
		}
		tp := TheoremPoint{
			Label:           pt.label,
			ViolationRate:   float64(nViol) / float64(opt.Trials),
			Beyond2Rate:     float64(nBeyond2) / float64(opt.Trials),
			RelRatio:        stats.Summarize(relRatios),
			ViolationFactor: stats.Summarize(violFactors),
		}
		if len(objRatios) > 0 {
			tp.ObjRatio = stats.Summarize(objRatios)
		}
		out.Points = append(out.Points, tp)
	}
	return out, nil
}

// RenderTables writes the validation table.
func (s *TheoremSweep) RenderTables(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "THEOREM 5.2 — empirical validation of the randomized algorithm (trials=%d, seed=%d)\n\n", s.Trials, s.Seed)
	fmt.Fprintf(&b, "  %-10s %-24s %-22s %-24s %-10s %-10s\n",
		"SFC len", "objective ratio (≲2)", "reliability vs ILP", "worst violation (≤2)", "viol rate", ">2x rate")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "  %-10s %-24s %-22s %-24s %-10.3f %-10.3f\n",
			p.Label,
			fmt.Sprintf("%.3f max %.3f", p.ObjRatio.Mean, p.ObjRatio.Max),
			fmt.Sprintf("%.4f", p.RelRatio.Mean),
			fmt.Sprintf("%.3f max %.3f", p.ViolationFactor.Mean, p.ViolationFactor.Max),
			p.ViolationRate, p.Beyond2Rate)
	}
	b.WriteString("\nTheorem 5.2 claims: expected objective approximation ratio ≤ 2 and per-cloudlet\nload ≤ 2× capacity, each with high probability; the >2x rate column counts the\nlow-probability exceptions.\n")
	_, err := io.WriteString(w, b.String())
	return err
}
