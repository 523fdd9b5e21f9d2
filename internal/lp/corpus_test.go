package lp

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The pinned corpus locks the simplex to its recorded behaviour: every model
// below was solved once by the dense two-phase tableau and the resulting
// Status/Objective/X/Iterations recorded (as raw float64 bits) in
// testdata/corpus_golden.json. The solver must reproduce each record
// exactly, pivot for pivot and bit for bit, which guards the pivot sequence
// (pricing and ratio-test tie-breaks) and the arithmetic. Every Optimal
// point must also satisfy its model's rows and bounds, checked against the
// model itself rather than the recording.
//
// Regenerate the golden file (only when intentionally changing solver
// semantics) with:
//
//	go test ./internal/lp -run TestCorpusBitIdentical -update-lp-corpus
var updateCorpus = flag.Bool("update-lp-corpus", false, "rewrite testdata/corpus_golden.json from the current solver")

// checkFeasible asserts that x satisfies every constraint and bound of the
// model within tol.
func checkFeasible(t *testing.T, name string, m *Model, x []float64, tol float64) {
	t.Helper()
	for j := 0; j < len(m.vars); j++ {
		lb, ub := m.VarBounds(j)
		if x[j] < lb-tol || x[j] > ub+tol {
			t.Errorf("%s: X[%d] = %v violates bounds [%v, %v]", name, j, x[j], lb, ub)
		}
	}
	for i := range m.cons {
		lhs := 0.0
		for _, term := range m.cons[i].terms {
			lhs += term.Coeff * x[term.Var]
		}
		switch m.cons[i].rel {
		case LE:
			if lhs > m.cons[i].rhs+tol {
				t.Errorf("%s: constraint %d: %v > %v", name, i, lhs, m.cons[i].rhs)
			}
		case GE:
			if lhs < m.cons[i].rhs-tol {
				t.Errorf("%s: constraint %d: %v < %v", name, i, lhs, m.cons[i].rhs)
			}
		case EQ:
			if math.Abs(lhs-m.cons[i].rhs) > tol {
				t.Errorf("%s: constraint %d: %v != %v", name, i, lhs, m.cons[i].rhs)
			}
		}
	}
}

// corpusCase is one pinned model: a builder (so tests never share mutable
// state) plus the pivot budget it is solved under (0 = automatic).
type corpusCase struct {
	name    string
	maxIter int
	build   func() *Model
}

// corpusCases deterministically constructs the pinned models. The set covers
// every status the solver can report and the structural edge cases the
// standard-form conversion handles: degenerate vertices, infeasible systems
// (both detected trivially and via phase 1), unbounded rays, iteration-limit
// exits, free variables, fixed variables, redundant (rank-deficient) rows,
// negative right-hand sides, duplicate terms, and the benchmark's assignment
// polytope.
func corpusCases() []corpusCase {
	cases := []corpusCase{
		{name: "simple-maximize", build: func() *Model {
			m := NewModel(Maximize)
			x := m.AddVar(0, math.Inf(1), 3, "x")
			y := m.AddVar(0, math.Inf(1), 5, "y")
			m.AddConstr([]Term{{x, 1}}, LE, 4, "c1")
			m.AddConstr([]Term{{y, 2}}, LE, 12, "c2")
			m.AddConstr([]Term{{x, 3}, {y, 2}}, LE, 18, "c3")
			return m
		}},
		{name: "minimize-ge-shifted-lb", build: func() *Model {
			m := NewModel(Minimize)
			x := m.AddVar(2, math.Inf(1), 2, "x")
			y := m.AddVar(3, math.Inf(1), 3, "y")
			m.AddConstr([]Term{{x, 1}, {y, 1}}, GE, 10, "cover")
			return m
		}},
		{name: "equality", build: func() *Model {
			m := NewModel(Minimize)
			x := m.AddVar(0, 3, 1, "x")
			y := m.AddVar(0, math.Inf(1), 2, "y")
			m.AddConstr([]Term{{x, 1}, {y, 1}}, EQ, 5, "sum")
			return m
		}},
		{name: "infeasible-phase1", build: func() *Model {
			m := NewModel(Minimize)
			x := m.AddVar(0, math.Inf(1), 1, "x")
			m.AddConstr([]Term{{x, 1}}, GE, 5, "lo")
			m.AddConstr([]Term{{x, 1}}, LE, 3, "hi")
			return m
		}},
		{name: "infeasible-trivial-empty-row", build: func() *Model {
			m := NewModel(Minimize)
			m.AddVar(0, 1, 1, "x")
			m.AddConstr(nil, GE, 5, "impossible")
			return m
		}},
		{name: "unbounded", build: func() *Model {
			m := NewModel(Maximize)
			x := m.AddVar(0, math.Inf(1), 1, "x")
			m.AddConstr([]Term{{x, 1}}, GE, 1, "lo")
			return m
		}},
		{name: "fixed-variable", build: func() *Model {
			m := NewModel(Maximize)
			x := m.AddVar(2, 2, 10, "x")
			y := m.AddVar(0, math.Inf(1), 1, "y")
			m.AddConstr([]Term{{x, 1}, {y, 1}}, LE, 7, "cap")
			return m
		}},
		{name: "free-variable", build: func() *Model {
			m := NewModel(Minimize)
			x := m.AddVar(math.Inf(-1), math.Inf(1), 1, "x")
			m.AddConstr([]Term{{x, 1}}, GE, -7, "lo")
			return m
		}},
		{name: "free-variable-with-ub", build: func() *Model {
			m := NewModel(Maximize)
			m.AddVar(math.Inf(-1), 4, 1, "x")
			return m
		}},
		{name: "negative-rhs", build: func() *Model {
			m := NewModel(Minimize)
			x := m.AddVar(0, 3, 0, "x")
			y := m.AddVar(0, math.Inf(1), 1, "y")
			m.AddConstr([]Term{{x, -1}, {y, -1}}, LE, -4, "neg")
			return m
		}},
		{name: "degenerate-beale", build: func() *Model {
			m := NewModel(Maximize)
			x1 := m.AddVar(0, math.Inf(1), 10, "x1")
			x2 := m.AddVar(0, math.Inf(1), -57, "x2")
			x3 := m.AddVar(0, math.Inf(1), -9, "x3")
			x4 := m.AddVar(0, math.Inf(1), -24, "x4")
			m.AddConstr([]Term{{x1, 0.5}, {x2, -5.5}, {x3, -2.5}, {x4, 9}}, LE, 0, "c1")
			m.AddConstr([]Term{{x1, 0.5}, {x2, -1.5}, {x3, -0.5}, {x4, 1}}, LE, 0, "c2")
			m.AddConstr([]Term{{x1, 1}}, LE, 1, "c3")
			return m
		}},
		{name: "redundant-rank-deficient", build: func() *Model {
			m := NewModel(Minimize)
			x := m.AddVar(0, math.Inf(1), 1, "x")
			y := m.AddVar(0, math.Inf(1), 1, "y")
			m.AddConstr([]Term{{x, 1}, {y, 1}}, EQ, 4, "e1")
			m.AddConstr([]Term{{x, 1}, {y, 1}}, EQ, 4, "e2")
			return m
		}},
		{name: "duplicate-terms", build: func() *Model {
			m := NewModel(Maximize)
			x := m.AddVar(0, math.Inf(1), 1, "x")
			m.AddConstr([]Term{{x, 1}, {x, 1}}, LE, 6, "dup")
			return m
		}},
		{name: "assignment-3x3", build: func() *Model {
			return assignmentModel(3, 31)
		}},
		{name: "assignment-12x12-benchmark", build: func() *Model {
			return assignmentModel(12, 7)
		}},
		{name: "assignment-12x12-iterlimit", maxIter: 10, build: func() *Model {
			return assignmentModel(12, 7)
		}},
	}
	// Random feasible LPs over mixed relations and bounds (seeded, so the
	// corpus is reproducible from source alone).
	for trial := 0; trial < 6; trial++ {
		trial := trial
		cases = append(cases, corpusCase{
			name: fmt.Sprintf("random-mixed-%d", trial),
			build: func() *Model {
				rng := rand.New(rand.NewSource(1700 + int64(trial)))
				n := 2 + rng.Intn(7)
				rows := 1 + rng.Intn(7)
				m := NewModel(Maximize)
				vars := make([]int, n)
				x0 := make([]float64, n)
				for i := 0; i < n; i++ {
					x0[i] = rng.Float64() * 2
					lb, ub := 0.0, 5.0
					if rng.Intn(4) == 0 {
						lb = math.Inf(-1)
					}
					vars[i] = m.AddVar(lb, ub, rng.Float64()*4-2, "x")
				}
				for r := 0; r < rows; r++ {
					terms := make([]Term, 0, n)
					lhs := 0.0
					for i := 0; i < n; i++ {
						c := rng.Float64()*4 - 2
						terms = append(terms, Term{vars[i], c})
						lhs += c * x0[i]
					}
					rel, rhs := LE, lhs+rng.Float64()
					if rng.Intn(2) == 0 {
						rel, rhs = GE, lhs-rng.Float64()
					}
					m.AddConstr(terms, rel, rhs, "r")
				}
				return m
			},
		})
	}
	// Fractional knapsacks (single row, dense, all-LE).
	for trial := 0; trial < 3; trial++ {
		trial := trial
		cases = append(cases, corpusCase{
			name: fmt.Sprintf("knapsack-%d", trial),
			build: func() *Model {
				rng := rand.New(rand.NewSource(2900 + int64(trial)))
				n := 4 + rng.Intn(9)
				m := NewModel(Maximize)
				terms := make([]Term, n)
				for i := 0; i < n; i++ {
					v := m.AddVar(0, 1, 1+rng.Float64()*9, "x")
					terms[i] = Term{v, 1 + rng.Float64()*9}
				}
				m.AddConstr(terms, LE, rng.Float64()*30, "cap")
				return m
			},
		})
	}
	return cases
}

// assignmentModel builds the n×n assignment LP used by the benchmark suite.
func assignmentModel(n int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(Minimize)
	vars := make([][]int, n)
	for i := 0; i < n; i++ {
		vars[i] = make([]int, n)
		for j := 0; j < n; j++ {
			vars[i][j] = m.AddVar(0, 1, rng.Float64()*10, "x")
		}
	}
	for i := 0; i < n; i++ {
		var row, col []Term
		for j := 0; j < n; j++ {
			row = append(row, Term{Var: vars[i][j], Coeff: 1})
			col = append(col, Term{Var: vars[j][i], Coeff: 1})
		}
		m.AddConstr(row, EQ, 1, "r")
		m.AddConstr(col, EQ, 1, "c")
	}
	return m
}

// goldenRecord stores one solve outcome with float64s as raw bits, so the
// comparison is exact (JSON round-trips of decimal floats are not).
type goldenRecord struct {
	Name       string   `json:"name"`
	Status     string   `json:"status"`
	Iterations int      `json:"iterations"`
	ObjBits    uint64   `json:"obj_bits"`
	XBits      []uint64 `json:"x_bits"`
	// Human-readable mirrors (ignored by the comparison).
	Objective float64   `json:"objective"`
	X         []float64 `json:"x"`
}

func recordOf(name string, s *Solution) goldenRecord {
	rec := goldenRecord{
		Name:       name,
		Status:     s.Status.String(),
		Iterations: s.Iterations,
		ObjBits:    math.Float64bits(s.Objective),
		Objective:  s.Objective,
		X:          s.X,
	}
	for _, v := range s.X {
		rec.XBits = append(rec.XBits, math.Float64bits(v))
	}
	return rec
}

const corpusGoldenPath = "testdata/corpus_golden.json"

func TestCorpusBitIdentical(t *testing.T) {
	cases := corpusCases()
	got := make([]goldenRecord, 0, len(cases))
	for _, c := range cases {
		s := c.build().solveWithLimit(c.maxIter)
		got = append(got, recordOf(c.name, s))
	}

	if *updateCorpus {
		if err := os.MkdirAll(filepath.Dir(corpusGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), corpusGoldenPath)
		return
	}

	data, err := os.ReadFile(corpusGoldenPath)
	if err != nil {
		t.Fatalf("golden corpus missing (run with -update-lp-corpus to create): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus drift: golden has %d records, source builds %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("case %d: name %q, golden %q", i, g.Name, w.Name)
		}
		if g.Status != w.Status {
			t.Errorf("%s: status %s, golden %s", g.Name, g.Status, w.Status)
			continue
		}
		if g.Status == "optimal" {
			checkFeasible(t, g.Name, cases[i].build(), g.X, 1e-6)
		}
		if g.Iterations != w.Iterations {
			t.Errorf("%s: iterations %d, golden %d", g.Name, g.Iterations, w.Iterations)
		}
		if g.ObjBits != w.ObjBits {
			t.Errorf("%s: objective %v (bits %x), golden %v (bits %x)",
				g.Name, g.Objective, g.ObjBits, w.Objective, w.ObjBits)
		}
		if len(g.XBits) != len(w.XBits) {
			t.Errorf("%s: |X| = %d, golden %d", g.Name, len(g.XBits), len(w.XBits))
			continue
		}
		for j := range g.XBits {
			if g.XBits[j] != w.XBits[j] {
				t.Errorf("%s: X[%d] = %v (bits %x), golden %v (bits %x)",
					g.Name, j, g.X[j], g.XBits[j], w.X[j], w.XBits[j])
			}
		}
	}
}
