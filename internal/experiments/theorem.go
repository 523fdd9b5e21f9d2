package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
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

// theoremTrial is one trial's raw observations for the Theorem 5.2 check.
type theoremTrial struct {
	objRatio, relRatio, violFactor float64
	hasObj, hasRel                 bool
	violated, beyond2              bool
}

// TheoremCheck empirically validates Theorem 5.2's two claims about the
// randomized algorithm — the constant-factor objective approximation and the
// ≤2× computing-capacity violation — across SFC lengths.
func TheoremCheck(opt Options) (*TheoremSweep, error) {
	opt = opt.withDefaults()
	out := &TheoremSweep{Trials: opt.Trials, Seed: opt.Seed}
	cfg := workload.NewDefaultConfig()
	ilpSolver := core.NewILPSolver(core.ILPOptions{})
	rndSolver := core.NewRandomizedSolver(core.RandomizedOptions{})
	for _, length := range []int{4, 8, 12, 16} {
		length := length
		trials, err := engine.RunTagged(context.Background(),
			fmt.Sprintf("seed=%d theorem-len=%d", opt.Seed, length),
			opt.Trials, opt.Workers,
			func(t int) int64 { return opt.Seed*1_000_003 + int64(length)*40_009 + int64(t) },
			func(t int, rng *rand.Rand) (theoremTrial, error) {
				net := cfg.Network(rng)
				req := cfg.RequestWithLength(rng, t, length, net.Catalog().Size())
				workload.PlacePrimariesRandom(net, req, rng)
				inst := core.NewInstance(net, req, core.Params{L: cfg.HopBound})

				ilpRes, err := ilpSolver.Solve(inst, rng)
				if err != nil {
					return theoremTrial{}, fmt.Errorf("ILP: %w", err)
				}
				rndRes, err := rndSolver.Solve(inst, rng)
				if err != nil {
					return theoremTrial{}, fmt.Errorf("Randomized: %w", err)
				}

				// Objective (5) is Σ -log R_i = -log(chain reliability).
				objILP := -math.Log(ilpRes.Reliability)
				objRnd := -math.Log(rndRes.Reliability)
				rec := theoremTrial{
					violFactor: math.Max(1, rndRes.Usage.Max),
					violated:   rndRes.Violated,
					beyond2:    rndRes.Usage.Max > 2,
				}
				if objILP > 1e-12 {
					rec.objRatio, rec.hasObj = objRnd/objILP, true
				}
				if ilpRes.Reliability > 0 {
					rec.relRatio, rec.hasRel = rndRes.Reliability/ilpRes.Reliability, true
				}
				return rec, nil
			})
		if err != nil {
			return nil, fmt.Errorf("theorem: SFC length %d: %w", length, err)
		}

		var objRatios, relRatios, violFactors []float64
		nViol, nBeyond2 := 0, 0
		for _, rec := range trials {
			if rec.hasObj {
				objRatios = append(objRatios, rec.objRatio)
			}
			if rec.hasRel {
				relRatios = append(relRatios, rec.relRatio)
			}
			violFactors = append(violFactors, rec.violFactor)
			if rec.violated {
				nViol++
			}
			if rec.beyond2 {
				nBeyond2++
			}
		}
		p := TheoremPoint{
			Label:           fmt.Sprintf("%d", length),
			ViolationRate:   float64(nViol) / float64(opt.Trials),
			Beyond2Rate:     float64(nBeyond2) / float64(opt.Trials),
			RelRatio:        stats.Summarize(relRatios),
			ViolationFactor: stats.Summarize(violFactors),
		}
		if len(objRatios) > 0 {
			p.ObjRatio = stats.Summarize(objRatios)
		}
		out.Points = append(out.Points, p)
		progress(opt, "theorem: SFC length %d done", length)
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
