// Package lp implements a general linear-programming model and a two-phase
// dense tableau simplex solver. It exists because this reproduction is
// stdlib-only and the Go ecosystem's LP options are out of bounds: the
// randomized algorithm (Algorithm 1) solves one LP relaxation per request
// and rounds it, and internal/ilp, the test oracle for the exact solver,
// runs its branch and bound on these models.
//
// The solver handles minimization and maximization, ≤/=/≥ rows, finite or
// infinite variable bounds (free variables are split), and reports Optimal,
// Infeasible, or Unbounded. Dantzig pricing is used initially with a switch
// to Bland's rule to guarantee termination.
package lp

import (
	"fmt"
	"math"
)

// Sense is the optimization direction.
type Sense int

const (
	// Minimize asks for the least objective value.
	Minimize Sense = iota
	// Maximize asks for the greatest objective value.
	Maximize
)

// Rel is a constraint relation.
type Rel int

const (
	// LE is the ≤ relation.
	LE Rel = iota
	// GE is the ≥ relation.
	GE
	// EQ is the = relation.
	EQ
)

// String renders the relation as its mathematical symbol.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set has no feasible point.
	Infeasible
	// Unbounded means the objective is unbounded in the optimization direction.
	Unbounded
	// IterLimit means the iteration budget was exhausted before convergence.
	IterLimit
)

// String names the solver status for logs and error messages.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var   int
	Coeff float64
}

type variable struct {
	lb, ub float64
	obj    float64
	name   string
}

type constraint struct {
	terms []Term
	rel   Rel
	rhs   float64
	name  string
}

// Model is a linear program under construction. Build it with AddVar and
// AddConstr, then call Solve.
type Model struct {
	sense Sense
	vars  []variable
	cons  []constraint
}

// NewModel returns an empty model with the given optimization sense.
func NewModel(sense Sense) *Model {
	return &Model{sense: sense}
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstrs returns the number of constraints added so far.
func (m *Model) NumConstrs() int { return len(m.cons) }

// Sense returns the optimization direction of the model.
func (m *Model) Sense() Sense { return m.sense }

// AddVar adds a variable with bounds [lb, ub] and objective coefficient obj,
// returning its index. lb may be math.Inf(-1) and ub math.Inf(1).
func (m *Model) AddVar(lb, ub, obj float64, name string) int {
	if lb > ub {
		panic(fmt.Sprintf("lp: variable %q has lb %v > ub %v", name, lb, ub))
	}
	if math.IsNaN(lb) || math.IsNaN(ub) || math.IsNaN(obj) {
		panic(fmt.Sprintf("lp: variable %q has NaN parameter", name))
	}
	m.vars = append(m.vars, variable{lb: lb, ub: ub, obj: obj, name: name})
	return len(m.vars) - 1
}

// AddConstr adds the constraint Σ terms rel rhs, returning its index.
// Duplicate variable mentions within terms are summed.
func (m *Model) AddConstr(terms []Term, rel Rel, rhs float64, name string) int {
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: constraint %q has NaN rhs", name))
	}
	merged := make(map[int]float64, len(terms))
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.vars) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
		if math.IsNaN(t.Coeff) {
			panic(fmt.Sprintf("lp: constraint %q has NaN coefficient", name))
		}
		merged[t.Var] += t.Coeff
	}
	clean := make([]Term, 0, len(merged))
	for _, t := range terms { // preserve first-mention order for determinism
		if c, ok := merged[t.Var]; ok {
			if c != 0 {
				clean = append(clean, Term{Var: t.Var, Coeff: c})
			}
			delete(merged, t.Var)
		}
	}
	m.cons = append(m.cons, constraint{terms: clean, rel: rel, rhs: rhs, name: name})
	return len(m.cons) - 1
}

// SetVarBounds tightens or changes the bounds of variable v (used by
// branch-and-bound to fix binaries).
func (m *Model) SetVarBounds(v int, lb, ub float64) {
	if v < 0 || v >= len(m.vars) {
		panic(fmt.Sprintf("lp: SetVarBounds on unknown variable %d", v))
	}
	if lb > ub {
		panic(fmt.Sprintf("lp: SetVarBounds lb %v > ub %v", lb, ub))
	}
	m.vars[v].lb = lb
	m.vars[v].ub = ub
}

// VarBounds returns the current bounds of variable v.
func (m *Model) VarBounds(v int) (lb, ub float64) {
	return m.vars[v].lb, m.vars[v].ub
}

// VarName returns the name given to variable v at creation.
func (m *Model) VarName(v int) string { return m.vars[v].name }

// Clone returns an independent deep copy of the model.
func (m *Model) Clone() *Model {
	c := &Model{sense: m.sense}
	c.vars = append([]variable(nil), m.vars...)
	c.cons = make([]constraint, len(m.cons))
	for i, con := range m.cons {
		c.cons[i] = constraint{
			terms: append([]Term(nil), con.terms...),
			rel:   con.rel,
			rhs:   con.rhs,
			name:  con.name,
		}
	}
	return c
}

// Solution is the result of solving a model.
type Solution struct {
	Status     Status
	Objective  float64   // in the model's original sense
	X          []float64 // one value per model variable
	Iterations int       // total simplex pivots across both phases
}
