package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/workload"
)

// relaxation builds Algorithm 1's LP relaxation of an instance as core does
// (count variables per position and bin, unit item variables priced by
// gain, one link row per position, one capacity row per cloudlet), from the
// instance's exported fields; core does not export its builder.
// TestRandomizedModelsMatchDense checks that this copy solves exactly as
// the Randomized solver's own model does.
func relaxation(inst *core.Instance) *lp.Model {
	m := lp.NewModel(lp.Maximize)
	y := make([][]int, len(inst.Positions))
	for i, p := range inst.Positions {
		var link []lp.Term
		y[i] = make([]int, len(p.Bins))
		for b := range p.Bins {
			y[i][b] = m.AddVar(0, float64(min(p.Slots[b], p.K)), 0, "y")
			link = append(link, lp.Term{Var: y[i][b], Coeff: -1})
		}
		for k := 0; k < p.K; k++ {
			link = append(link, lp.Term{Var: m.AddVar(0, 1, p.Gains[k], "z"), Coeff: 1})
		}
		if len(link) > 0 {
			m.AddConstr(link, lp.EQ, 0, "link")
		}
	}
	for _, u := range inst.BinSet {
		var terms []lp.Term
		for i, p := range inst.Positions {
			for b, bu := range p.Bins {
				if bu == u {
					terms = append(terms, lp.Term{Var: y[i][b], Coeff: p.Func.Demand})
				}
			}
		}
		if len(terms) > 0 {
			m.AddConstr(terms, lp.LE, inst.Residual[u], "cap")
		}
	}
	return m
}

// TestRandomizedModelsMatchDense pins that the sparse pivot solves the LP
// relaxations of Fig. 1 (SFC lengths 2 to 20, the first trials of the
// seed-42 sweep, sampled as the sweep samples them) exactly as the dense
// reference pivot does: Status, Iterations, and the bits of Objective and
// X.
func TestRandomizedModelsMatchDense(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	randomized, _ := core.Get("Randomized")
	solved := 0
	for length := 2; length <= 20; length += 2 {
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(42*1_000_003 + int64(length)*10_007 + int64(trial)))
			net := cfg.Network(rng)
			req := cfg.RequestWithLength(rng, trial, length, net.Catalog().Size())
			workload.PlacePrimariesRandom(net, req, rng)
			inst := core.NewInstance(net, req, core.Params{L: cfg.HopBound})
			if inst.ExpectationMet() || inst.TotalItems() == 0 {
				continue // Randomized solves no LP here
			}
			got, want := relaxation(inst).Solve(), lp.SolveDense(relaxation(inst))
			if d := lp.SameSolution(got, want); d != "" {
				t.Errorf("SFC length %d, trial %d: %s", length, trial, d)
			}
			res, err := randomized.Solve(inst, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.LPIterations != got.Iterations || math.Float64bits(res.Objective) != math.Float64bits(got.Objective) {
				t.Fatalf("SFC length %d, trial %d: the test's relaxation is not the Randomized solver's model", length, trial)
			}
			solved++
		}
	}
	if solved < 30 {
		t.Fatalf("only %d Fig. 1 relaxations solved", solved)
	}
}
