package lp

import (
	"math"
	"testing"
)

// densePivot is the reference the sparse pivot is checked against: the
// pivot as a dense tableau update, every column of the pivot row, of every
// other row with a nonzero in the pivot column, and of r.
func densePivot(sf *standardForm, row, col int, r []float64) {
	mRows := len(sf.a)
	piv := sf.a[row][col]
	prow := sf.a[row]
	inv := 1 / piv
	for j := range prow {
		prow[j] *= inv
	}
	sf.b[row] *= inv
	prow[col] = 1 // fight rounding

	for i := 0; i < mRows; i++ {
		if i == row {
			continue
		}
		f := sf.a[i][col]
		if f == 0 {
			continue
		}
		arow := sf.a[i]
		for j := range arow {
			arow[j] -= f * prow[j]
		}
		arow[col] = 0
		sf.b[i] -= f * sf.b[row]
		if sf.b[i] < 0 && sf.b[i] > -eps {
			sf.b[i] = 0
		}
	}
	f := r[col]
	if f != 0 {
		for j := range r {
			r[j] -= f * prow[j]
		}
		r[col] = 0
	}
	sf.basis[row] = col
}

// sameSolution reports how two solutions of one model differ: Status,
// Iterations, and the bits of Objective and of every X, or "" when they
// are identical.
func sameSolution(got, want *Solution) string {
	switch {
	case got.Status != want.Status:
		return "status " + got.Status.String() + ", dense " + want.Status.String()
	case got.Iterations != want.Iterations:
		return "iterations differ"
	case math.Float64bits(got.Objective) != math.Float64bits(want.Objective):
		return "objective bits differ"
	case len(got.X) != len(want.X):
		return "|X| differs"
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return "X bits differ"
		}
	}
	return ""
}

// TestSparsePivotMatchesDense pins that pivoting on the pivot row's nonzero
// columns only solves every corpus model exactly as the dense pivot does.
// (TestRandomizedModelsMatchDense checks the Fig. 1 relaxations.)
func TestSparsePivotMatchesDense(t *testing.T) {
	for _, c := range corpusCases() {
		got := c.build().solve(c.maxIter, (*standardForm).pivot)
		want := c.build().solve(c.maxIter, densePivot)
		if d := sameSolution(got, want); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
}
