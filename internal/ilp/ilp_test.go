package ilp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// mustSolve runs Solve and fails the test on a model-validation error.
func mustSolve(t *testing.T, m *lp.Model, intVars []int, opt Options) *Result {
	t.Helper()
	r, err := Solve(m, intVars, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return r
}

// bruteKnapsack solves 0/1 knapsack max Σp x, Σw x <= cap exactly by
// enumeration (n <= ~20).
func bruteKnapsack(p, w []float64, cap float64) float64 {
	n := len(p)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var tp, tw float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				tp += p[i]
				tw += w[i]
			}
		}
		if tw <= cap+1e-12 && tp > best {
			best = tp
		}
	}
	return best
}

func TestKnapsackSmall(t *testing.T) {
	p := []float64{6, 10, 12}
	w := []float64{1, 2, 3}
	capV := 5.0
	m := lp.NewModel(lp.Maximize)
	terms := make([]lp.Term, 3)
	vars := make([]int, 3)
	for i := 0; i < 3; i++ {
		vars[i] = m.AddVar(0, 1, p[i], "x")
		terms[i] = lp.Term{Var: vars[i], Coeff: w[i]}
	}
	m.AddConstr(terms, lp.LE, capV, "cap")
	r := mustSolve(t, m, vars, Options{})
	if r.Status != lp.Optimal || !r.Proven {
		t.Fatalf("status=%v proven=%v", r.Status, r.Proven)
	}
	if math.Abs(r.Objective-22) > 1e-6 { // items 2+3
		t.Fatalf("obj=%v, want 22", r.Objective)
	}
	for _, v := range vars {
		x := r.X[v]
		if math.Abs(x-math.Round(x)) > 1e-6 {
			t.Fatalf("non-integral solution %v", r.X)
		}
	}
}

func TestKnapsackRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		p := make([]float64, n)
		w := make([]float64, n)
		for i := range p {
			p[i] = math.Round(rng.Float64()*20) + 1
			w[i] = math.Round(rng.Float64()*10) + 1
		}
		cap := rng.Float64() * 30
		m := lp.NewModel(lp.Maximize)
		terms := make([]lp.Term, n)
		vars := make([]int, n)
		for i := 0; i < n; i++ {
			vars[i] = m.AddVar(0, 1, p[i], "x")
			terms[i] = lp.Term{Var: vars[i], Coeff: w[i]}
		}
		m.AddConstr(terms, lp.LE, cap, "cap")
		r := mustSolve(t, m, vars, Options{})
		if r.Status != lp.Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		want := bruteKnapsack(p, w, cap)
		if math.Abs(r.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: ilp=%v brute=%v", trial, r.Objective, want)
		}
	}
}

// TestBoundedKnapsackRandomAgainstBrute checks general (non-0/1) integer
// variables against enumeration: a branch must bound a variable to
// x ≤ ⌊x̃⌋ or x ≥ ⌈x̃⌉, not fix it to either value, or optima away from the
// root relaxation's neighbourhood are never visited.
func TestBoundedKnapsackRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(4)
		p := make([]float64, n)
		w := make([]float64, n)
		ub := make([]int, n)
		for i := range p {
			p[i] = math.Round(rng.Float64()*20) + 1
			w[i] = math.Round(rng.Float64()*10) + 1
			ub[i] = 1 + rng.Intn(4)
		}
		cap := rng.Float64() * 40
		m := lp.NewModel(lp.Maximize)
		terms := make([]lp.Term, n)
		vars := make([]int, n)
		for i := 0; i < n; i++ {
			vars[i] = m.AddVar(0, float64(ub[i]), p[i], "x")
			terms[i] = lp.Term{Var: vars[i], Coeff: w[i]}
		}
		m.AddConstr(terms, lp.LE, cap, "cap")
		r := mustSolve(t, m, vars, Options{})
		if r.Status != lp.Optimal || !r.Proven {
			t.Fatalf("trial %d: status %v proven %v", trial, r.Status, r.Proven)
		}
		want := 0.0
		x := make([]int, n)
		var rec func(i int, weight, profit float64)
		rec = func(i int, weight, profit float64) {
			if weight > cap+1e-12 {
				return
			}
			if i == n {
				want = math.Max(want, profit)
				return
			}
			for x[i] = 0; x[i] <= ub[i]; x[i]++ {
				rec(i+1, weight+float64(x[i])*w[i], profit+float64(x[i])*p[i])
			}
		}
		rec(0, 0, 0)
		if math.Abs(r.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: ilp=%v brute=%v", trial, r.Objective, want)
		}
	}
}

// bruteGAP exhaustively solves min-cost assignment of items to bins with
// capacities; assignment optional (item may stay unassigned), maximizing
// profit.
func bruteGAP(profit [][]float64, size []float64, capV []float64) float64 {
	n := len(size)
	m := len(capV)
	var rec func(i int, used []float64) float64
	rec = func(i int, used []float64) float64 {
		if i == n {
			return 0
		}
		best := rec(i+1, used) // skip item
		for b := 0; b < m; b++ {
			if used[b]+size[i] <= capV[b]+1e-12 {
				used[b] += size[i]
				if v := profit[i][b] + rec(i+1, used); v > best {
					best = v
				}
				used[b] -= size[i]
			}
		}
		return best
	}
	return rec(0, make([]float64, m))
}

func TestGAPRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(6)
		bins := 1 + rng.Intn(3)
		profit := make([][]float64, n)
		size := make([]float64, n)
		capV := make([]float64, bins)
		for b := range capV {
			capV[b] = 2 + rng.Float64()*6
		}
		for i := 0; i < n; i++ {
			size[i] = 1 + rng.Float64()*3
			profit[i] = make([]float64, bins)
			for b := 0; b < bins; b++ {
				profit[i][b] = rng.Float64() * 10
			}
		}
		m := lp.NewModel(lp.Maximize)
		var intVars []int
		x := make([][]int, n)
		for i := 0; i < n; i++ {
			x[i] = make([]int, bins)
			rowTerms := make([]lp.Term, 0, bins)
			for b := 0; b < bins; b++ {
				x[i][b] = m.AddVar(0, 1, profit[i][b], "x")
				intVars = append(intVars, x[i][b])
				rowTerms = append(rowTerms, lp.Term{Var: x[i][b], Coeff: 1})
			}
			m.AddConstr(rowTerms, lp.LE, 1, "assign")
		}
		for b := 0; b < bins; b++ {
			capTerms := make([]lp.Term, 0, n)
			for i := 0; i < n; i++ {
				capTerms = append(capTerms, lp.Term{Var: x[i][b], Coeff: size[i]})
			}
			m.AddConstr(capTerms, lp.LE, capV[b], "cap")
		}
		r := mustSolve(t, m, intVars, Options{})
		if r.Status != lp.Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		want := bruteGAP(profit, size, capV)
		if math.Abs(r.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: ilp=%v brute=%v", trial, r.Objective, want)
		}
	}
}

func TestInfeasibleILP(t *testing.T) {
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar(0, 1, 1, "x")
	y := m.AddVar(0, 1, 1, "y")
	m.AddConstr([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.GE, 3, "impossible")
	r := mustSolve(t, m, []int{x, y}, Options{})
	if r.Status != lp.Infeasible {
		t.Fatalf("status %v, want infeasible", r.Status)
	}
}

func TestIntegerForcing(t *testing.T) {
	// LP optimum is x=2.5; ILP must settle at 2 (maximize x, x<=2.5).
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar(0, 10, 1, "x")
	m.AddConstr([]lp.Term{{Var: x, Coeff: 1}}, lp.LE, 2.5, "cap")
	r := mustSolve(t, m, []int{x}, Options{})
	if r.Status != lp.Optimal || math.Abs(r.Objective-2) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal 2", r.Status, r.Objective)
	}
	// The fractional root forces at least one branch, so the tree must report
	// depth ≥ 1; depth counts edges from the root, so it is < nodes explored.
	if r.Depth < 1 {
		t.Fatalf("fractional root solved with Depth=%d, want >= 1", r.Depth)
	}
	if r.Depth >= r.Nodes {
		t.Fatalf("Depth=%d must be < Nodes=%d", r.Depth, r.Nodes)
	}
	if r.Pivots <= 0 {
		t.Fatalf("Pivots=%d, want > 0 (root + node relaxations)", r.Pivots)
	}
}

func TestIntegralRootHasZeroDepth(t *testing.T) {
	// The LP relaxation is already integral (maximize x, x<=2), so the search
	// never branches: root-only tree, depth 0.
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar(0, 10, 1, "x")
	m.AddConstr([]lp.Term{{Var: x, Coeff: 1}}, lp.LE, 2, "cap")
	r := mustSolve(t, m, []int{x}, Options{})
	if r.Status != lp.Optimal || math.Abs(r.Objective-2) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal 2", r.Status, r.Objective)
	}
	if r.Depth != 0 {
		t.Fatalf("integral root explored to Depth=%d, want 0", r.Depth)
	}
}

func TestDepthBoundedByNodes(t *testing.T) {
	// On random GAP instances the reported depth must stay consistent with
	// the node count: 0 ≤ Depth < Nodes whenever any node was explored.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(5)
		m := lp.NewModel(lp.Maximize)
		terms := make([]lp.Term, n)
		vars := make([]int, n)
		for i := 0; i < n; i++ {
			vars[i] = m.AddVar(0, 1, rng.Float64()*10+1, "x")
			terms[i] = lp.Term{Var: vars[i], Coeff: rng.Float64()*5 + 1}
		}
		m.AddConstr(terms, lp.LE, float64(n), "cap")
		r := mustSolve(t, m, vars, Options{})
		if r.Status != lp.Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		if r.Depth < 0 {
			t.Fatalf("trial %d: negative Depth %d", trial, r.Depth)
		}
		if r.Nodes > 0 && r.Depth >= r.Nodes {
			t.Fatalf("trial %d: Depth=%d >= Nodes=%d", trial, r.Depth, r.Nodes)
		}
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max x + y, x integer <= 2.5, y continuous <= 0.7 → 2 + 0.7.
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar(0, 10, 1, "x")
	y := m.AddVar(0, 0.7, 1, "y")
	m.AddConstr([]lp.Term{{Var: x, Coeff: 1}}, lp.LE, 2.5, "cx")
	r := mustSolve(t, m, []int{x}, Options{})
	if r.Status != lp.Optimal || math.Abs(r.Objective-2.7) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want 2.7", r.Status, r.Objective)
	}
	if math.Abs(r.X[y]-0.7) > 1e-6 {
		t.Fatalf("continuous var y=%v, want 0.7", r.X[y])
	}
}

func TestMinimizationILP(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 1.5, binaries → x=0,y=1 infeasible (sum 1 <
	// 1.5) so x=1,y=1 cost 5. Wait: need sum >= 1.5 with binaries → both 1.
	m := lp.NewModel(lp.Minimize)
	x := m.AddVar(0, 1, 3, "x")
	y := m.AddVar(0, 1, 2, "y")
	m.AddConstr([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.GE, 1.5, "cover")
	r := mustSolve(t, m, []int{x, y}, Options{})
	if r.Status != lp.Optimal || math.Abs(r.Objective-5) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want 5", r.Status, r.Objective)
	}
}

func TestNodeBudgetReportsGap(t *testing.T) {
	// A knapsack big enough to need some branching, with MaxNodes=1: the
	// result must be either proven quickly or flagged unproven with a gap.
	rng := rand.New(rand.NewSource(9))
	n := 15
	m := lp.NewModel(lp.Maximize)
	terms := make([]lp.Term, n)
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		p := rng.Float64()*10 + 1
		w := rng.Float64()*10 + 1
		vars[i] = m.AddVar(0, 1, p, "x")
		terms[i] = lp.Term{Var: vars[i], Coeff: w}
	}
	m.AddConstr(terms, lp.LE, 25, "cap")
	r := mustSolve(t, m, vars, Options{MaxNodes: 1})
	if r.Status == lp.Optimal && !r.Proven {
		t.Fatal("optimal must imply proven")
	}
	if r.Status == lp.IterLimit && r.X == nil {
		t.Fatal("budgeted run should still carry the rounding incumbent")
	}
}

func TestInfiniteBoundIntegerIsError(t *testing.T) {
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar(0, math.Inf(1), 1, "x")
	r, err := Solve(m, []int{x}, Options{})
	if err == nil {
		t.Fatalf("expected error for unbounded integer var, got result %+v", r)
	}
}
