package lp

import (
	"math"
)

const (
	eps      = 1e-9 // general numeric tolerance
	pivotEps = 1e-7 // minimum magnitude for a pivot element
)

// Solve optimizes the model with the two-phase revised simplex method.
func (m *Model) Solve() *Solution {
	return m.SolveWithLimit(0)
}

// SolveWithLimit is Solve with an explicit pivot budget; maxIter <= 0 selects
// an automatic budget proportional to the model size. Scratch storage comes
// from the package workspace pool, so repeated solves allocate only the
// returned Solution.
func (m *Model) SolveWithLimit(maxIter int) *Solution {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	return m.solveWithWorkspace(ws, maxIter)
}

// solveWithWorkspace solves the model with ws owning every piece of scratch
// storage (sparse matrix, basis factorization, pricing buffers). The
// returned Solution and its X are freshly allocated and safe to retain;
// everything else is reused by the next solve through ws.
func (m *Model) solveWithWorkspace(ws *workspace, maxIter int) *Solution {
	sf, infeasible := m.toStandardForm(ws)
	if infeasible {
		return &Solution{Status: Infeasible, X: make([]float64, len(m.vars))}
	}
	if maxIter <= 0 {
		size := sf.rows + sf.n
		maxIter = 2000 + 40*size
	}
	iters := 0

	// The initial basis (slacks + artificials) is an identity matrix, so
	// this first factorization cannot fail; it is excluded from the
	// refresh count.
	f := &ws.fact
	if !f.factorize(sf, 1e-11) {
		return &Solution{Status: Infeasible, X: make([]float64, len(m.vars))}
	}
	f.refreshes = 0
	copy(sf.beta, sf.rhs[:sf.rows])

	// Phase 1: minimize the sum of artificial variables.
	if sf.nArt > 0 {
		phase1 := ws.costs(sf.n + sf.nArt)
		for j := sf.n; j < sf.n+sf.nArt; j++ {
			phase1[j] = 1
		}
		st, it := sf.simplex(f, ws, phase1, maxIter, true)
		iters += it
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iterations: iters, EtaRefreshes: f.refreshes, X: make([]float64, len(m.vars))}
		}
		if st == Unbounded {
			// Phase 1 is bounded below by 0; an unbounded report signals
			// numerical degeneracy, which we treat as infeasible.
			return &Solution{Status: Infeasible, Iterations: iters, EtaRefreshes: f.refreshes, X: make([]float64, len(m.vars))}
		}
		if sf.phaseObjective(phase1) > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: iters, EtaRefreshes: f.refreshes, X: make([]float64, len(m.vars))}
		}
		sf.driveOutArtificials(f, ws)
	}

	// Phase 2: minimize original costs.
	st, it := sf.simplex(f, ws, sf.c, maxIter, false)
	iters += it
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded, Iterations: iters, EtaRefreshes: f.refreshes, X: make([]float64, len(m.vars))}
	case IterLimit:
		return &Solution{Status: IterLimit, Iterations: iters, EtaRefreshes: f.refreshes, X: make([]float64, len(m.vars))}
	}

	return sf.solution(m, iters, f, ws)
}

// solution extracts the optimum into a fresh Solution.
func (sf *standardForm) solution(m *Model, iters int, f *basisFactor, ws *workspace) *Solution {
	x := sf.extract(len(m.vars), ws)
	obj := 0.0
	for j := range m.vars {
		obj += m.vars[j].obj * x[j]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Iterations: iters, EtaRefreshes: f.refreshes}
}

// simplex runs the revised primal simplex on the current basis and
// factorization with the given cost vector (length >= n; artificial columns
// beyond len(costs) are treated as cost 0 — callers pass a full-length
// vector in phase 1). allowArt permits artificial columns to enter (phase 1
// only); with it false, artificials stuck in the basis at value zero are
// forced out on degenerate pivots so they can never regrow.
func (sf *standardForm) simplex(f *basisFactor, ws *workspace, costs []float64, maxIter int, allowArt bool) (Status, int) {
	mRows := sf.rows
	nCols := sf.n + sf.nArt
	if !allowArt {
		nCols = sf.n
	}
	costAt := func(j int) float64 {
		if j < len(costs) {
			return costs[j]
		}
		return 0
	}
	y := ws.duals(mRows)
	d := ws.spike(mRows)

	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		// Refresh the factorization when the eta chain has grown stale, and
		// recompute beta from scratch to shed accumulated drift. A failed
		// refresh means the true basis matrix is singular at tolerance —
		// a drifted eta-chain spike can admit a pivot the exact basis does
		// not support. factorize leaves the active factors intact in that
		// case, so continuing on the existing chain is exactly the math of
		// not having attempted the refresh; subsequent pivots move the
		// basis and a backed-off retry (see needRefresh) recovers.
		if f.needRefresh() {
			if f.factorize(sf, 1e-11) {
				sf.refreshBeta(f)
			}
		}

		// Price: duals y = B⁻ᵀc_B, then reduced costs r_j = c_j − y·a_j per
		// sparse column. Dantzig picks the most negative (ties to the lowest
		// column, same as the dense solver); Bland takes over late to
		// guarantee termination.
		for i := 0; i < mRows; i++ {
			y[i] = costAt(sf.basis[i])
		}
		f.btran(y)
		enter := -1
		if iter < blandAfter {
			best := -eps
			for j := 0; j < nCols; j++ {
				if sf.inBasis[j] {
					continue
				}
				if r := costAt(j) - sf.colDot(j, y); r < best {
					best = r
					enter = j
				}
			}
		} else {
			for j := 0; j < nCols; j++ {
				if sf.inBasis[j] {
					continue
				}
				if costAt(j)-sf.colDot(j, y) < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, iter
		}

		// Spike d = B⁻¹a_enter, then the ratio test (lowest basic column on
		// ties, like the dense solver).
		sf.scatterCol(enter, d)
		f.ftran(d)
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < mRows; i++ {
			di := d[i]
			ratio := math.Inf(1)
			switch {
			case di > pivotEps:
				ratio = sf.beta[i] / di
			case !allowArt && sf.basis[i] >= sf.n && di < -pivotEps:
				// Basic artificial (value 0, phase 2): it must not grow, so
				// it leaves on a degenerate pivot even with a negative spike
				// entry.
				ratio = sf.beta[i] / -di
			default:
				continue
			}
			if ratio < bestRatio-eps ||
				(ratio < bestRatio+eps && (leave < 0 || sf.basis[i] < sf.basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded, iter
		}

		sf.pivot(f, leave, enter, d)
	}
	return IterLimit, maxIter
}

// pivot swaps column enter into basis row leave, updates beta by the pivot
// step θ = β_r/d_r, and extends the eta file (refactorizing instead when the
// spike pivot is too small for a stable eta).
func (sf *standardForm) pivot(f *basisFactor, leave, enter int, d []float64) {
	theta := sf.beta[leave] / d[leave]
	for i := 0; i < sf.rows; i++ {
		if i == leave || d[i] == 0 {
			continue
		}
		sf.beta[i] -= theta * d[i]
		if sf.beta[i] < 0 && sf.beta[i] > -eps {
			sf.beta[i] = 0
		}
	}
	if theta < 0 && theta > -eps {
		theta = 0
	}
	sf.beta[leave] = theta
	sf.inBasis[sf.basis[leave]] = false
	sf.inBasis[enter] = true
	sf.basis[leave] = enter
	// update cannot fail here: the ratio test only admits leave rows with
	// |d[leave]| > pivotEps, the exact threshold update enforces. The
	// refactorization fallback is belt-and-braces for that invariant.
	if !f.update(d, leave) {
		if f.factorize(sf, 1e-11) {
			sf.refreshBeta(f)
		}
	}
}

// refreshBeta recomputes the basic values from the pristine rhs through the
// current factorization, clamping rounding-noise negatives exactly like the
// incremental update does.
func (sf *standardForm) refreshBeta(f *basisFactor) {
	copy(sf.beta, sf.rhs[:sf.rows])
	f.ftran(sf.beta)
	for i := range sf.beta[:sf.rows] {
		if sf.beta[i] < 0 && sf.beta[i] > -eps {
			sf.beta[i] = 0
		}
	}
}

// phaseObjective evaluates Σ costs over the current basic solution.
func (sf *standardForm) phaseObjective(costs []float64) float64 {
	obj := 0.0
	for i, bj := range sf.basis[:sf.rows] {
		if bj < len(costs) && costs[bj] != 0 {
			obj += costs[bj] * sf.beta[i]
		}
	}
	return obj
}

// driveOutArtificials pivots basic artificials (necessarily at value ~0
// after a successful phase 1) out of the basis: for each such row the first
// nonbasic structural/slack column with a usable pivot element in that row
// enters on a degenerate pivot. Rows where no such column exists are
// rank-deficient (redundant constraints); their artificial stays basic at
// zero, which is harmless — every phase-2 spike is zero in a redundant row,
// so the artificial can never change value (the ratio-test guard in simplex
// is belt and braces).
func (sf *standardForm) driveOutArtificials(f *basisFactor, ws *workspace) {
	var d []float64
	for i := 0; i < sf.rows; i++ {
		if sf.basis[i] < sf.n {
			continue
		}
		// rho = row i of B⁻¹; a column qualifies iff rho·a_j is a usable
		// pivot (that dot is exactly the spike entry d_i it would have).
		rho := ws.duals(sf.rows)
		clearF(rho)
		rho[i] = 1
		f.btran(rho)
		for j := 0; j < sf.n; j++ {
			if sf.inBasis[j] || math.Abs(sf.colDot(j, rho)) <= pivotEps {
				continue
			}
			if d == nil {
				d = ws.spike(sf.rows)
			}
			sf.scatterCol(j, d)
			f.ftran(d)
			if math.Abs(d[i]) <= pivotEps {
				continue // rounding disagreement; try the next column
			}
			sf.pivot(f, i, j, d)
			break
		}
	}
}

// extract reads the model-variable values out of the current basic solution.
func (sf *standardForm) extract(nVars int, ws *workspace) []float64 {
	val := ws.values(sf.n + sf.nArt)
	for i, bj := range sf.basis[:sf.rows] {
		v := sf.beta[i]
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
