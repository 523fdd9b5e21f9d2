package lp

import (
	"math"
	"sync"
)

const (
	eps      = 1e-9 // general numeric tolerance
	pivotEps = 1e-7 // minimum magnitude for a pivot element
)

// standardForm is the internal min c'y, Ay = b, y >= 0 representation built
// from a Model. Each model variable maps to either one shifted column
// (finite lb) or a pair of split columns (free variable).
type standardForm struct {
	a     [][]float64 // m rows × n structural+slack+artificial columns
	b     []float64
	c     []float64 // phase-2 costs per column
	n     int       // columns excluding artificials
	nArt  int       // artificial columns (appended at the end)
	basis []int     // basic column per row
	// mapping back to model variables:
	posCol []int // column of the positive part of each model var
	negCol []int // column of the negative part, or -1
	lbs    []float64
	flip   bool // true if the model was Maximize (costs were negated)

	ws        *workspace // scratch memory; a lives in ws.cells
	pivotStep pivotFunc  // the pivot simplex runs
}

// pivotFunc is one tableau pivot on (row, col) that also updates the
// reduced costs r.
type pivotFunc func(sf *standardForm, row, col int, r []float64)

// workspace is the scratch memory of one solve. Finished solves return it to
// workspaces, so the tableau's backing array, the largest allocation of a
// solve, is reused instead of allocated and zeroed anew each time.
type workspace struct {
	cells []float64 // the tableau, row-major
	r     []float64 // reduced costs
	nz    []int     // the pivot row's nonzero columns
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// grow returns s resized to n elements, all zero, reusing its array when it
// is large enough.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Solve optimizes the model with the two-phase simplex method.
func (m *Model) Solve() *Solution {
	return m.solveWithLimit(0)
}

// solveWithLimit is Solve with an explicit pivot budget; maxIter <= 0 selects
// an automatic budget proportional to the model size.
func (m *Model) solveWithLimit(maxIter int) *Solution {
	return m.solve(maxIter, (*standardForm).pivot)
}

// solve is solveWithLimit with the pivot step given.
func (m *Model) solve(maxIter int, pivot pivotFunc) *Solution {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	sf, infeasible := m.toStandardForm(ws)
	if infeasible {
		return &Solution{Status: Infeasible, X: make([]float64, len(m.vars))}
	}
	sf.pivotStep = pivot
	if maxIter <= 0 {
		size := len(sf.b) + sf.n
		maxIter = 2000 + 40*size
	}
	iters := 0

	// Phase 1: minimize the sum of artificial variables.
	if sf.nArt > 0 {
		phase1 := make([]float64, sf.n+sf.nArt)
		for j := sf.n; j < sf.n+sf.nArt; j++ {
			phase1[j] = 1
		}
		st, it := sf.simplex(phase1, maxIter)
		iters += it
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iterations: iters, X: make([]float64, len(m.vars))}
		}
		if st == Unbounded {
			// Phase 1 is bounded below by 0; an unbounded report signals
			// numerical degeneracy, which we treat as infeasible.
			return &Solution{Status: Infeasible, Iterations: iters, X: make([]float64, len(m.vars))}
		}
		if sf.phaseObjective(phase1) > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: iters, X: make([]float64, len(m.vars))}
		}
		sf.driveOutArtificials()
	}

	// Phase 2: minimize original costs.
	st, it := sf.simplex(sf.c, maxIter)
	iters += it
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded, Iterations: iters, X: make([]float64, len(m.vars))}
	case IterLimit:
		return &Solution{Status: IterLimit, Iterations: iters, X: make([]float64, len(m.vars))}
	}

	x := sf.extract(len(m.vars))
	obj := 0.0
	for j, v := range m.vars {
		obj += v.obj * x[j]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Iterations: iters}
}

// toStandardForm converts the model. The bool result reports trivial
// infeasibility detected during conversion (e.g., empty constraint with an
// unsatisfiable rhs).
func (m *Model) toStandardForm(ws *workspace) (*standardForm, bool) {
	nv := len(m.vars)
	sf := &standardForm{
		ws:     ws,
		posCol: make([]int, nv),
		negCol: make([]int, nv),
		lbs:    make([]float64, nv),
		flip:   m.sense == Maximize,
	}

	// Assign structural columns.
	col := 0
	type ubRow struct {
		v  int
		ub float64
	}
	var ubRows []ubRow
	for j, v := range m.vars {
		lb, ub := v.lb, v.ub
		switch {
		case math.IsInf(lb, -1):
			sf.posCol[j] = col
			sf.negCol[j] = col + 1
			sf.lbs[j] = 0
			col += 2
			if !math.IsInf(ub, 1) {
				ubRows = append(ubRows, ubRow{v: j, ub: ub})
			}
		default:
			sf.posCol[j] = col
			sf.negCol[j] = -1
			sf.lbs[j] = lb
			col++
			if !math.IsInf(ub, 1) {
				w := ub - lb
				if w < 0 {
					w = 0
				}
				ubRows = append(ubRows, ubRow{v: j, ub: w})
			}
		}
	}
	nStruct := col

	// Count rows: model constraints + finite upper-bound rows.
	rows := len(m.cons) + len(ubRows)
	b := make([]float64, rows)
	rels := make([]Rel, rows)

	// Each row's right-hand side and relation come first: with the slack
	// columns they fix the tableau's final width, so it is allocated once.
	for i, con := range m.cons {
		rhs := con.rhs
		for _, t := range con.terms {
			rhs -= t.Coeff * sf.lbs[t.Var]
		}
		b[i] = rhs
		rels[i] = con.rel
		if len(con.terms) == 0 {
			switch con.rel {
			case LE:
				if rhs < -eps {
					return nil, true
				}
			case GE:
				if rhs > eps {
					return nil, true
				}
			case EQ:
				if math.Abs(rhs) > eps {
					return nil, true
				}
			}
		}
	}
	for k, ur := range ubRows {
		i := len(m.cons) + k
		b[i] = ur.ub
		rels[i] = LE
	}

	// Slack/surplus columns follow the structural ones. A row whose b is
	// negative is flipped to b >= 0, its slack's sign with it. The initial
	// basis takes a row's slack when its coefficient is +1 after the flip,
	// and a fresh artificial column, appended at the end, otherwise.
	slackCol := make([]int, rows)
	nSlack := 0
	for i := range rels {
		if rels[i] == EQ {
			slackCol[i] = -1
			continue
		}
		slackCol[i] = nStruct + nSlack
		nSlack++
	}
	total := nStruct + nSlack
	basis := make([]int, rows)
	nArt := 0
	for i := range rels {
		flipped := b[i] < 0
		if slackCol[i] >= 0 && (rels[i] == LE) != flipped {
			basis[i] = slackCol[i]
		} else {
			basis[i] = total + nArt
			nArt++
		}
	}

	// The tableau, at its final width, in the workspace's backing array.
	width := total + nArt
	ws.cells = grow(ws.cells, rows*width)
	cells := ws.cells
	a := make([][]float64, rows)
	for i := range a {
		a[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}

	// Objective in min sense (the lb shifts' constant is not kept: the
	// objective is recomputed from x).
	c := make([]float64, total)
	for j, v := range m.vars {
		coef := v.obj
		if sf.flip {
			coef = -coef
		}
		c[sf.posCol[j]] += coef
		if sf.negCol[j] >= 0 {
			c[sf.negCol[j]] -= coef
		}
	}

	// Coefficients, slacks, the flip to b >= 0 (the artificial columns are
	// not flipped), then each artificial's 1.
	for i, con := range m.cons {
		for _, t := range con.terms {
			j := t.Var
			a[i][sf.posCol[j]] += t.Coeff
			if sf.negCol[j] >= 0 {
				a[i][sf.negCol[j]] -= t.Coeff
			}
		}
	}
	for k, ur := range ubRows {
		i := len(m.cons) + k
		a[i][sf.posCol[ur.v]] = 1
		if sf.negCol[ur.v] >= 0 {
			a[i][sf.negCol[ur.v]] = -1
		}
	}
	for i := range a {
		if sc := slackCol[i]; sc >= 0 {
			if rels[i] == LE {
				a[i][sc] = 1
			} else {
				a[i][sc] = -1
			}
		}
		if b[i] < 0 {
			row := a[i][:total]
			for j := range row {
				row[j] = -row[j]
			}
			b[i] = -b[i]
		}
		if basis[i] >= total {
			a[i][basis[i]] = 1
		}
	}

	sf.a = a
	sf.b = b
	sf.c = c
	sf.n = total
	sf.nArt = nArt
	sf.basis = basis
	return sf, false
}

// simplex runs the primal simplex on the full tableau from the current basis
// with the given cost vector (length >= n; artificial columns beyond
// len(costs) are treated as cost 0 — callers pass a full-length vector in
// phase 1).
func (sf *standardForm) simplex(costs []float64, maxIter int) (Status, int) {
	mRows := len(sf.a)
	totalCols := sf.n + sf.nArt
	costAt := func(j int) float64 {
		if j < len(costs) {
			return costs[j]
		}
		return 0
	}

	// Price out the basis: reduced costs r_j = c_j - c_B' * a_j where a is
	// the current (transformed) tableau. We recompute r from scratch each
	// call and maintain it incrementally across pivots.
	sf.ws.r = grow(sf.ws.r, totalCols)
	r := sf.ws.r
	for j := 0; j < totalCols; j++ {
		r[j] = costAt(j)
	}
	for i := 0; i < mRows; i++ {
		cb := costAt(sf.basis[i])
		if cb == 0 {
			continue
		}
		row := sf.a[i]
		for j := 0; j < totalCols; j++ {
			r[j] -= cb * row[j]
		}
	}

	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		// Entering column.
		enter := -1
		if iter < blandAfter {
			best := -eps
			for j := 0; j < totalCols; j++ {
				if r[j] < best {
					best = r[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < totalCols; j++ {
				if r[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, iter
		}

		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < mRows; i++ {
			aie := sf.a[i][enter]
			if aie > pivotEps {
				ratio := sf.b[i] / aie
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && (leave < 0 || sf.basis[i] < sf.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, iter
		}

		sf.pivotStep(sf, leave, enter, r)
	}
	return IterLimit, maxIter
}

// pivot performs a tableau pivot on (row, col) and updates reduced costs.
// It scales the pivot row and gathers its nonzero columns in one pass, then
// eliminates the pivot column from every other row with a nonzero there,
// and from r, on those columns only. A zero column would compute
// x − f·0, which can change nothing but the sign of a zero (for finite f;
// a non-finite f takes every column, as the dense update would). Nothing
// reads a zero's sign: every comparison treats −0 as 0, no value is ever
// divided by a tableau zero (pivot elements and ratio-test divisors exceed
// pivotEps), and Objective and X are read from b, which both updates
// compute alike. So Status, Iterations, Objective and X are bit for bit
// those of the dense pivot.
func (sf *standardForm) pivot(row, col int, r []float64) {
	prow := sf.a[row]
	inv := 1 / prow[col]
	nz := sf.ws.nz[:0]
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * inv
			nz = append(nz, j)
		}
	}
	sf.ws.nz = nz
	sf.b[row] *= inv
	prow[col] = 1 // fight rounding

	for i, arow := range sf.a {
		f := arow[col]
		if i == row || f == 0 {
			continue
		}
		eliminate(arow, prow, nz, f)
		arow[col] = 0
		sf.b[i] -= f * sf.b[row]
		if sf.b[i] < 0 && sf.b[i] > -eps {
			sf.b[i] = 0
		}
	}
	if f := r[col]; f != 0 {
		eliminate(r, prow, nz, f)
		r[col] = 0
	}
	sf.basis[row] = col
}

// eliminate subtracts f·prow from x on the columns nz, or on every column
// when f is not finite.
func eliminate(x, prow []float64, nz []int, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		for j := range x {
			x[j] -= f * prow[j]
		}
		return
	}
	for _, j := range nz {
		x[j] -= f * prow[j]
	}
}

// phaseObjective evaluates Σ costs over the current basic solution.
func (sf *standardForm) phaseObjective(costs []float64) float64 {
	obj := 0.0
	for i, bj := range sf.basis {
		if bj < len(costs) && costs[bj] != 0 {
			obj += costs[bj] * sf.b[i]
		}
	}
	return obj
}

// driveOutArtificials removes artificial columns after a successful phase 1:
// basic artificials (necessarily at value 0) are pivoted out onto any
// structural/slack column with a usable pivot element; rows where no such
// column exists are rank-deficient (redundant constraints) and are deleted.
// Finally the artificial columns themselves are truncated so they can never
// re-enter in phase 2.
func (sf *standardForm) driveOutArtificials() {
	mRows := len(sf.a)
	for i := 0; i < mRows; i++ {
		if sf.basis[i] < sf.n { // structural or slack
			continue
		}
		// Try to pivot in any structural/slack column with nonzero entry.
		for j := 0; j < sf.n; j++ {
			if math.Abs(sf.a[i][j]) > pivotEps {
				// Manual pivot without reduced-cost bookkeeping (phase-2
				// simplex recomputes reduced costs from scratch).
				piv := sf.a[i][j]
				inv := 1 / piv
				for k := range sf.a[i] {
					sf.a[i][k] *= inv
				}
				sf.b[i] *= inv
				sf.a[i][j] = 1
				for i2 := 0; i2 < mRows; i2++ {
					if i2 == i {
						continue
					}
					f := sf.a[i2][j]
					if f == 0 {
						continue
					}
					for k := range sf.a[i2] {
						sf.a[i2][k] -= f * sf.a[i][k]
					}
					sf.a[i2][j] = 0
					sf.b[i2] -= f * sf.b[i]
				}
				sf.basis[i] = j
				break
			}
		}
	}
	// Delete rows whose artificial could not be pivoted out (redundant).
	keepA := sf.a[:0]
	keepB := sf.b[:0]
	keepBasis := sf.basis[:0]
	for i := 0; i < mRows; i++ {
		if sf.basis[i] >= sf.n {
			continue
		}
		keepA = append(keepA, sf.a[i])
		keepB = append(keepB, sf.b[i])
		keepBasis = append(keepBasis, sf.basis[i])
	}
	sf.a = keepA
	sf.b = keepB
	sf.basis = keepBasis
	// Hard-delete artificial columns so they can never re-enter.
	if sf.nArt > 0 {
		for i := range sf.a {
			sf.a[i] = sf.a[i][:sf.n]
		}
		sf.nArt = 0
	}
}

// extract reads the model-variable values out of the current basic solution.
func (sf *standardForm) extract(nVars int) []float64 {
	val := make([]float64, sf.n+sf.nArt)
	for i, bj := range sf.basis {
		v := sf.b[i]
		if v < 0 && v > -eps {
			v = 0
		}
		val[bj] = v
	}
	x := make([]float64, nVars)
	for j := 0; j < nVars; j++ {
		v := val[sf.posCol[j]]
		if sf.negCol[j] >= 0 {
			v -= val[sf.negCol[j]]
		}
		x[j] = v + sf.lbs[j]
	}
	return x
}
