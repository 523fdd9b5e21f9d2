// Package ilp is a small generic branch-and-bound for mixed-integer linear
// programs with bounded integer variables on top of the internal/lp simplex
// solver. Nothing on a serving or experiment path uses it: the paper's exact
// "ILP" algorithm is core's count-space branch and bound
// (internal/core/countbb.go), and this package is the independent oracle
// core's cross-check tests compare it against — so it is kept serial, cold
// and short rather than fast.
//
// The search is best-bound with a depth-first dive on ties, most-fractional
// branching (x ≤ ⌊x̃⌋ down, x ≥ ⌈x̃⌉ up), and an LP-rounding incumbent
// heuristic at every node. Every node relaxation is a cold two-phase solve
// of one scratch copy of the model whose branching bounds are applied
// before the solve and undone after. A node budget makes worst-case
// behaviour predictable; the result reports whether optimality was proven.
package ilp

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// intTol is how close to an integer an LP value must be to count as integral.
const intTol = 1e-6

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of explored nodes; <=0 means 200000.
	MaxNodes int
	// GapTol stops the search when (incumbent-bound)/max(1,|incumbent|)
	// falls below it; <=0 means prove exact optimality (1e-9).
	GapTol float64
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	if o.GapTol <= 0 {
		o.GapTol = 1e-9
	}
	return o
}

// Result is the outcome of a branch-and-bound run.
type Result struct {
	Status    lp.Status // Optimal, Infeasible, or IterLimit (budget exhausted with/without incumbent)
	Objective float64
	X         []float64
	Nodes     int     // nodes explored
	Depth     int     // maximum tree depth among explored nodes (root = 0)
	Pivots    int     // simplex pivots over root + node relaxations (rounding re-solves excluded)
	Proven    bool    // true if optimality was proven within budgets
	Gap       float64 // remaining relative gap when !Proven and an incumbent exists
}

// Solve optimizes the model requiring the variables listed in intVars to take
// integer values. Integer variables must have finite bounds (in this repo
// they are core's per-bin counts, 0..K); an infinite bound is reported as an
// error. The model is not mutated.
func Solve(m *lp.Model, intVars []int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	for _, v := range intVars {
		lb, ub := m.VarBounds(v)
		if math.IsInf(lb, -1) || math.IsInf(ub, 1) {
			return nil, fmt.Errorf("ilp: integer variable %d has infinite bounds", v)
		}
	}

	sense := m.Sense()
	better := func(a, b float64) bool { // is a better than b?
		if sense == lp.Maximize {
			return a > b
		}
		return a < b
	}

	// work is the one mutable copy every relaxation and rounding probe
	// solves; each restores the bounds it changed from m before returning.
	work := m.Clone()

	res := &Result{}
	var (
		incumbent    []float64
		incumbentObj float64
		haveInc      bool
	)
	consider := func(x []float64, obj float64) {
		if !haveInc || better(obj, incumbentObj) {
			incumbent = append([]float64(nil), x...)
			incumbentObj = obj
			haveInc = true
		}
	}

	// The root enters with the best bound there is; its relaxation is solved
	// like any other node's.
	rootBound := math.Inf(1)
	if sense == lp.Minimize {
		rootBound = math.Inf(-1)
	}
	pq := &nodeHeap{better: better}
	pq.push(nodeEntry{bound: rootBound})

	for pq.len() > 0 && res.Nodes < opt.MaxNodes {
		ent := pq.pop()
		res.Nodes++
		if ent.depth > res.Depth {
			res.Depth = ent.depth
		}
		// Prune against incumbent.
		if haveInc && !better(ent.bound, incumbentObj) &&
			math.Abs(ent.bound-incumbentObj) > 1e-12 {
			continue
		}

		for _, f := range ent.branches { // later entries are nested tighter
			work.SetVarBounds(f.v, f.lb, f.ub)
		}
		sol := work.Solve()
		for _, f := range ent.branches {
			lb, ub := m.VarBounds(f.v)
			work.SetVarBounds(f.v, lb, ub)
		}
		res.Pivots += sol.Iterations
		if sol.Status != lp.Optimal {
			if ent.depth == 0 {
				// The root relaxation decides the whole program.
				res.Status = sol.Status
				return res, nil
			}
			continue
		}
		if haveInc && !better(sol.Objective, incumbentObj) &&
			math.Abs(sol.Objective-incumbentObj) > intTol {
			continue
		}

		frac := mostFractional(sol.X, intVars)
		if frac < 0 {
			// Integral solution.
			consider(snapIntegers(sol.X, intVars), sol.Objective)
			continue
		}
		if x, obj, ok := roundToFeasible(m, work, intVars, sol.X); ok {
			consider(x, obj)
		}

		lbv := math.Floor(sol.X[frac])
		ubv := lbv + 1
		varLB, varUB := m.VarBounds(frac)
		for _, f := range ent.branches {
			if f.v == frac {
				varLB, varUB = f.lb, f.ub
			}
		}
		if lbv >= varLB {
			down := append(append([]branch(nil), ent.branches...), branch{v: frac, lb: varLB, ub: lbv})
			pq.push(nodeEntry{branches: down, bound: sol.Objective, depth: ent.depth + 1})
		}
		if ubv <= varUB {
			up := append(append([]branch(nil), ent.branches...), branch{v: frac, lb: ubv, ub: varUB})
			pq.push(nodeEntry{branches: up, bound: sol.Objective, depth: ent.depth + 1})
		}

		// Termination by gap.
		if haveInc && pq.len() > 0 {
			gap := math.Abs(pq.peekBound()-incumbentObj) / math.Max(1, math.Abs(incumbentObj))
			if gap <= opt.GapTol {
				res.Status = lp.Optimal
				res.Objective = incumbentObj
				res.X = incumbent
				res.Proven = true
				return res, nil
			}
		}
	}

	if haveInc {
		res.Objective = incumbentObj
		res.X = incumbent
		if pq.len() == 0 {
			res.Status = lp.Optimal
			res.Proven = true
		} else {
			res.Status = lp.IterLimit
			res.Gap = math.Abs(pq.peekBound()-incumbentObj) / math.Max(1, math.Abs(incumbentObj))
		}
		return res, nil
	}
	if pq.len() == 0 {
		res.Status = lp.Infeasible
	} else {
		res.Status = lp.IterLimit
	}
	return res, nil
}

// branch is one branching decision: variable v restricted to [lb, ub].
type branch struct {
	v      int
	lb, ub float64
}

// mostFractional returns the integer variable whose LP value is farthest from
// an integer, or -1 when all are integral.
func mostFractional(x []float64, intVars []int) int {
	best, bestDist := -1, intTol
	for _, v := range intVars {
		f := x[v] - math.Floor(x[v])
		d := math.Min(f, 1-f)
		if d > bestDist {
			bestDist = d
			best = v
		}
	}
	return best
}

// snapIntegers rounds near-integral entries exactly.
func snapIntegers(x []float64, intVars []int) []float64 {
	out := append([]float64(nil), x...)
	for _, v := range intVars {
		out[v] = math.Round(out[v])
	}
	return out
}

// roundToFeasible rounds the fractional LP point and re-solves the LP with
// the integers fixed, yielding a feasible mixed solution when one exists.
// Variables are rounded to the nearest integer; ties and capacity conflicts
// are resolved by the LP itself reporting infeasibility. sub is a scratch
// clone of m whose bounds are mutated for the solve and restored before
// returning.
func roundToFeasible(m, sub *lp.Model, intVars []int, x []float64) ([]float64, float64, bool) {
	for _, v := range intVars {
		r := math.Round(x[v])
		lb, ub := m.VarBounds(v)
		if r < lb {
			r = math.Ceil(lb)
		}
		if r > ub {
			r = math.Floor(ub)
		}
		sub.SetVarBounds(v, r, r)
	}
	sol := sub.Solve()
	for _, v := range intVars {
		lb, ub := m.VarBounds(v)
		sub.SetVarBounds(v, lb, ub)
	}
	if sol.Status != lp.Optimal {
		return nil, 0, false
	}
	return snapIntegers(sol.X, intVars), sol.Objective, true
}

// nodeEntry is a frontier node ordered by bound (best-bound first), breaking
// ties by depth (deeper first: dive).
type nodeEntry struct {
	branches []branch
	bound    float64
	depth    int
}

type nodeHeap struct {
	items  []nodeEntry
	better func(a, b float64) bool
}

func (h *nodeHeap) len() int { return len(h.items) }

func (h *nodeHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.bound != b.bound {
		return h.better(a.bound, b.bound)
	}
	return a.depth > b.depth
}

func (h *nodeHeap) push(e nodeEntry) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.less(i, p) {
			h.items[i], h.items[p] = h.items[p], h.items[i]
			i = p
		} else {
			break
		}
	}
}

func (h *nodeHeap) pop() nodeEntry {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.less(l, small) {
			small = l
		}
		if r < len(h.items) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

func (h *nodeHeap) peekBound() float64 { return h.items[0].bound }
