package lp

// SolveDense solves m with the dense reference pivot, for the external
// tests that check the sparse pivot against it.
func SolveDense(m *Model) *Solution { return m.solve(0, densePivot) }

// SameSolution is sameSolution for the external tests.
var SameSolution = sameSolution
