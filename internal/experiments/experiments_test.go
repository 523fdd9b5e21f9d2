package experiments

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// miniOpt keeps harness tests fast: few trials, quiet.
func miniOpt() Options {
	return Options{Trials: 2, Seed: 7, Quiet: true, Solvers: AllSolvers(), Progress: func(string) {}}
}

// heuristicOnly resolves the single cheap solver for fast tests.
func heuristicOnly() Options {
	opt := miniOpt()
	opt.Solvers = mustSolvers("Heuristic")
	return opt
}

func TestFig3SweepStructure(t *testing.T) {
	s, err := Fig3(miniOpt())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "fig3" || len(s.Points) != 5 {
		t.Fatalf("sweep %q with %d points", s.Name, len(s.Points))
	}
	for _, p := range s.Points {
		for _, alg := range []string{"ILP", "Randomized", "Heuristic", "Greedy"} {
			ap, ok := p.Algs[alg]
			if !ok {
				t.Fatalf("point %s missing %s", p.Label, alg)
			}
			if ap.Reliability.Mean <= 0 || ap.Reliability.Mean > 1 {
				t.Fatalf("point %s %s reliability %v out of (0,1]", p.Label, alg, ap.Reliability.Mean)
			}
			if ap.Reliability.N != 2 {
				t.Fatalf("point %s %s has %d trials, want 2", p.Label, alg, ap.Reliability.N)
			}
		}
		// Feasible algorithms may never beat the exact ILP.
		ilp := p.Algs["ILP"].Reliability.Mean
		for _, alg := range []string{"Heuristic", "Greedy"} {
			if p.Algs[alg].Reliability.Mean > ilp+1e-6 {
				t.Fatalf("point %s: %s (%v) beats ILP (%v)", p.Label, alg, p.Algs[alg].Reliability.Mean, ilp)
			}
		}
	}
	// Reliability should not increase when residual capacity decreases.
	first := s.Points[0].Algs["ILP"].Reliability.Mean              // 1/16
	last := s.Points[len(s.Points)-1].Algs["ILP"].Reliability.Mean // full capacity
	if first > last+1e-9 {
		t.Fatalf("reliability at 1/16 capacity (%v) exceeds full capacity (%v)", first, last)
	}
}

func TestFig1SweepLengthAxis(t *testing.T) {
	s, err := Fig1(heuristicOnly())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 10 {
		t.Fatalf("fig1 has %d points, want 10 (lengths 2..20)", len(s.Points))
	}
	if s.Points[0].X != 2 || s.Points[9].X != 20 {
		t.Fatalf("x-axis %v..%v", s.Points[0].X, s.Points[9].X)
	}
	// Longer chains are harder: reliability of the longest chain should not
	// exceed that of the shortest.
	if s.Points[9].Algs["Heuristic"].Reliability.Mean > s.Points[0].Algs["Heuristic"].Reliability.Mean+1e-9 {
		t.Fatal("reliability should not grow with SFC length")
	}
}

func TestFig2SweepReliabilityAxis(t *testing.T) {
	opt := miniOpt()
	opt.Solvers = mustSolvers("Heuristic", "Randomized")
	s, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("fig2 has %d points", len(s.Points))
	}
	lo := s.Points[0].Algs["Heuristic"].Reliability.Mean
	hi := s.Points[3].Algs["Heuristic"].Reliability.Mean
	if lo > hi {
		t.Fatalf("chain reliability should grow with function reliability: %v vs %v", lo, hi)
	}
}

func TestAblationHops(t *testing.T) {
	s, err := AblationHops(heuristicOnly())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("hops ablation has %d points", len(s.Points))
	}
	// Looser hop bounds can only help (weak check on means).
	l1 := s.Points[0].Algs["Heuristic"].Reliability.Mean
	l4 := s.Points[3].Algs["Heuristic"].Reliability.Mean
	if l4 < l1-1e-9 {
		t.Fatalf("l=4 reliability %v below l=1 %v", l4, l1)
	}
}

func TestAblationObjective(t *testing.T) {
	s, err := AblationObjective(miniOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("objective ablation has %d points", len(s.Points))
	}
	for _, p := range s.Points {
		if _, ok := p.Algs["ILP(gain)"]; !ok {
			t.Fatalf("point %s missing ILP(gain)", p.Label)
		}
		if _, ok := p.Algs["ILP(paper-cost)"]; !ok {
			t.Fatalf("point %s missing ILP(paper-cost)", p.Label)
		}
	}
}

func TestRenderTables(t *testing.T) {
	s, err := Fig3(miniOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.RenderTables(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"FIG3", "achieved SFC reliability", "capacity usage ratio",
		"running time", "ILP", "Randomized", "Heuristic", "1/16",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables missing %q:\n%s", want, out)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	s, err := Fig3(miniOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + 5 points × 4 algorithms
	if len(records) != 1+5*4 {
		t.Fatalf("CSV has %d rows, want %d", len(records), 1+5*4)
	}
	if records[0][0] != "sweep" || records[1][0] != "fig3" {
		t.Fatalf("CSV header/rows malformed: %v %v", records[0], records[1])
	}
	for _, rec := range records {
		if len(rec) != len(records[0]) {
			t.Fatalf("ragged CSV row: %v", rec)
		}
	}
	// unproven_share: a share for the exact solver's rows, empty otherwise.
	col := slices.Index(records[0], "unproven_share")
	if col < 0 {
		t.Fatalf("CSV header has no unproven_share: %v", records[0])
	}
	for _, rec := range records[1:] {
		share := rec[col]
		if rec[4] != "ILP" {
			if share != "" {
				t.Fatalf("%s row carries unproven_share %q", rec[4], share)
			}
			continue
		}
		if v, err := strconv.ParseFloat(share, 64); err != nil || v < 0 || v > 1 {
			t.Fatalf("ILP row unproven_share %q is not a share", share)
		}
	}
}

// TestUnprovenShareCountsExactTrials pins summarize's unproven share: the
// fraction of an exact solver's trials without a proof, and no share for a
// heuristic's row.
func TestUnprovenShareCountsExactTrials(t *testing.T) {
	p := summarize("x", 1, map[string][]trial{
		"ILP":       {{exact: true, proven: true}, {exact: true}, {exact: true, proven: true}, {exact: true, proven: true}},
		"Heuristic": {{}, {}},
	})
	if ap := p.Algs["ILP"]; !ap.Exact || ap.UnprovenShare != 0.25 {
		t.Fatalf("ILP: exact %v share %v, want true 0.25", ap.Exact, ap.UnprovenShare)
	}
	if ap := p.Algs["Heuristic"]; ap.Exact || ap.UnprovenShare != 0 {
		t.Fatalf("Heuristic: exact %v share %v, want no share", ap.Exact, ap.UnprovenShare)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 100 {
		t.Fatalf("default trials %d", o.Trials)
	}
	if len(o.Solvers) != 4 {
		t.Fatalf("default solvers: got %d, want the 4 built-ins", len(o.Solvers))
	}
	for i, want := range []string{"ILP", "Randomized", "Heuristic", "Greedy"} {
		if o.Solvers[i].Name() != want {
			t.Fatalf("default solver %d is %q, want %q", i, o.Solvers[i].Name(), want)
		}
	}
}

func TestDeterministicSweeps(t *testing.T) {
	opt := heuristicOnly()
	a, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		ra := a.Points[i].Algs["Heuristic"].Reliability.Mean
		rb := b.Points[i].Algs["Heuristic"].Reliability.Mean
		if ra != rb {
			t.Fatalf("sweep not deterministic at point %d: %v vs %v", i, ra, rb)
		}
	}
}

func TestTheoremCheck(t *testing.T) {
	s, err := TheoremCheck(miniOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("theorem sweep has %d points", len(s.Points))
	}
	for _, p := range s.Points {
		if p.RelRatio.Mean <= 0 {
			t.Fatalf("point %s: nonpositive reliability ratio", p.Label)
		}
		if p.ViolationFactor.Min < 1 {
			t.Fatalf("point %s: violation factor below 1: %v", p.Label, p.ViolationFactor.Min)
		}
		if p.Beyond2Rate > p.ViolationRate+1e-9 {
			t.Fatalf("point %s: >2x rate exceeds violation rate", p.Label)
		}
	}
	var buf bytes.Buffer
	if err := s.RenderTables(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "THEOREM 5.2") {
		t.Fatal("theorem table missing banner")
	}
}

func TestCharts(t *testing.T) {
	s, err := Fig3(miniOpt())
	if err != nil {
		t.Fatal(err)
	}
	charts := s.Charts()
	if len(charts) != 3 {
		t.Fatalf("%d charts, want 3", len(charts))
	}
	for _, c := range charts {
		var buf bytes.Buffer
		if err := c.Render(&buf); err != nil {
			t.Fatalf("chart %q: %v", c.Title, err)
		}
		if !strings.Contains(buf.String(), "polyline") {
			t.Fatalf("chart %q has no lines", c.Title)
		}
	}
	if !charts[2].LogY {
		t.Fatal("running-time chart should be log scale")
	}
}

// TestSweepAbortsOnTrialFailure pins that a figure is never averaged over
// the trials that happened to survive: one failing solve fails the sweep,
// and the error names the figure, the solver set and the first failing
// (point, trial) in dispatch order, last point first (here the very first
// trial fed fails), and carries the cause.
func TestSweepAbortsOnTrialFailure(t *testing.T) {
	induced := errors.New("induced trial failure")
	opt := miniOpt()
	opt.Trials = 12
	opt.Solvers = []core.Solver{core.NewSolverFunc("Flaky", func(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
		if rng.Float64() < 0.5 {
			return nil, induced
		}
		return core.SolveGreedy(inst)
	})}
	s, err := Fig1(opt)
	if s != nil || !errors.Is(err, induced) {
		t.Fatalf("sweep over a failing solver returned (%v, %v)", s, err)
	}
	for _, part := range []string{"fig1: ", "solvers=Flaky", "SFC length 20, trial 11: Flaky"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
}

// TestTrialsRunLastPointFirst pins the dispatch order: on one worker the
// trials run from the last point's last trial back to the first point's
// first, while the sweep still groups every record under its own point.
func TestTrialsRunLastPointFirst(t *testing.T) {
	type run struct{ length, trial int }
	var order []run
	opt := miniOpt()
	opt.Trials, opt.Workers = 3, 1
	opt.Solvers = []core.Solver{core.NewSolverFunc("Recording", func(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
		order = append(order, run{len(inst.Req.SFC), inst.Req.ID})
		res, err := core.SolveGreedy(inst)
		if err == nil {
			res.Reliability = float64(100*len(inst.Req.SFC) + inst.Req.ID) // where the record came from
		}
		return res, err
	})}
	s, err := Fig1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 30 {
		t.Fatalf("%d trials ran, want 30", len(order))
	}
	for k, r := range order {
		flat := 29 - k
		if want := (run{2 + 2*(flat/3), flat % 3}); r != want {
			t.Fatalf("trial %d fed was SFC length %d trial %d, want length %d trial %d", k, r.length, r.trial, want.length, want.trial)
		}
	}
	for p, pt := range s.Points {
		length := 2 + 2*p
		if got, want := pt.Algs["Recording"].Reliability.Mean, float64(100*length+1); pt.Label != strconv.Itoa(length) || got != want {
			t.Fatalf("point %d (%q) averages %v, want the records of length %d (%v)", p, pt.Label, got, length, want)
		}
	}
}
