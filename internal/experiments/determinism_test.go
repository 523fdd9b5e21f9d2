package experiments

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// compareSweeps asserts two sweeps agree on every reported number except the
// runtime columns (wall-clock is the one thing parallelism is allowed to
// change).
func compareSweeps(t *testing.T, label string, a, b *Sweep) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: %d vs %d points", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		if pa.Label != pb.Label || pa.X != pb.X {
			t.Fatalf("%s: point %d identity differs: (%s,%v) vs (%s,%v)", label, i, pa.Label, pa.X, pb.Label, pb.X)
		}
		if len(pa.Algs) != len(pb.Algs) {
			t.Fatalf("%s: point %s has %d vs %d algorithms", label, pa.Label, len(pa.Algs), len(pb.Algs))
		}
		for name, aa := range pa.Algs {
			bb, ok := pb.Algs[name]
			if !ok {
				t.Fatalf("%s: point %s missing %s in second run", label, pa.Label, name)
			}
			// Bit-identical equality on everything except RuntimeMS.
			if aa.Reliability != bb.Reliability {
				t.Errorf("%s: point %s %s reliability %+v vs %+v", label, pa.Label, name, aa.Reliability, bb.Reliability)
			}
			if aa.UsageAvg != bb.UsageAvg || aa.UsageMin != bb.UsageMin || aa.UsageMax != bb.UsageMax {
				t.Errorf("%s: point %s %s usage differs", label, pa.Label, name)
			}
			if aa.ViolationRate != bb.ViolationRate {
				t.Errorf("%s: point %s %s violation rate %v vs %v", label, pa.Label, name, aa.ViolationRate, bb.ViolationRate)
			}
			if aa.RelVsILP != bb.RelVsILP {
				t.Errorf("%s: point %s %s rel-vs-ILP %v vs %v", label, pa.Label, name, aa.RelVsILP, bb.RelVsILP)
			}
		}
	}
}

// TestRunPointWorkerCountDeterminism is the sharpest check: the raw per-trial
// records (not just their aggregates) must be bit-identical between a serial
// run and a wide pool. Randomized is the critical solver here — it draws from
// the per-trial rng after the workload sampling draws.
func TestRunPointWorkerCountDeterminism(t *testing.T) {
	cfg := workload.NewDefaultConfig()
	base := Options{Trials: 8, Seed: 99, Quiet: true, Solvers: PaperSolvers()}

	serial := base
	serial.Workers = 1
	wide := base
	wide.Workers = 8

	point := []sweepPoint{{label: "6", cfg: cfg, fixedLen: 6, seedOff: 17 * 10_007}}
	ra, err := runTrials("test", "SFC length", point, serial)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := runTrials("test", "SFC length", point, wide)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra[0], rb[0]
	if len(a) != len(b) {
		t.Fatalf("algorithm sets differ: %d vs %d", len(a), len(b))
	}
	for name, ta := range a {
		tb, ok := b[name]
		if !ok {
			t.Fatalf("missing %s in wide run", name)
		}
		if len(ta) != len(tb) {
			t.Fatalf("%s: %d vs %d trials", name, len(ta), len(tb))
		}
		for i := range ta {
			x, y := ta[i], tb[i]
			y.ms = x.ms // runtime excluded
			if x != y {
				t.Fatalf("%s trial %d differs between workers=1 and workers=8: %+v vs %+v", name, i, x, y)
			}
		}
	}
}

// TestSweepWorkerCountDeterminism covers the acceptance criterion end to end:
// a figure sweep with workers=1 and workers=8 produces identical Sweep points
// (reliability, usage, violation rate; runtime excluded), and two same-seed
// runs are identical too.
func TestSweepWorkerCountDeterminism(t *testing.T) {
	base := Options{Trials: 3, Seed: 5, Quiet: true, Solvers: PaperSolvers(), Progress: func(string) {}}

	serial := base
	serial.Workers = 1
	wide := base
	wide.Workers = 8

	a, err := Fig3(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3(wide)
	if err != nil {
		t.Fatal(err)
	}
	compareSweeps(t, "workers 1 vs 8", a, b)

	c, err := Fig3(wide)
	if err != nil {
		t.Fatal(err)
	}
	compareSweeps(t, "same-seed repeat", b, c)
}

// TestTheoremGolden pins the Theorem 5.2 sweep at -trials 6 -seed 42 to
// testdata/theorem_t6_s42.json, recorded from the check's original
// per-length harness: every point's ratios, violation factors and rates, bit
// for bit. A wrong seed offset breaks it, and so does reading the ILP's
// records as Randomized's (the ratios invert and the violation columns go to
// zero).
func TestTheoremGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/theorem_t6_s42.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden TheoremSweep
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatal(err)
	}
	got, err := TheoremCheck(Options{Trials: 6, Seed: 42, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, golden) {
		t.Fatalf("theorem sweep moved:\n got %+v\nwant %+v", *got, golden)
	}
}

// TestTheoremWorkerCountDeterminism pins that the Theorem 5.2 sweep, like the
// figures, is bit-identical at any worker count.
func TestTheoremWorkerCountDeterminism(t *testing.T) {
	opt := Options{Trials: 4, Seed: 9, Quiet: true}
	opt.Workers = 1
	a, err := TheoremCheck(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 3
	b, err := TheoremCheck(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("workers 1 vs 3:\n%+v\n%+v", *a, *b)
	}
}

// TestSweepIsOneTrialListWithPerPointSeeds pins that flattening a sweep into
// one trial list moved no seed: the raw per-trial records of Fig. 1 and
// Fig. 3 (runtime excluded) equal, record for record, what a loop over the
// points — one engine run each, seeded Seed*1_000_003 + pointIdx*10_007 + t —
// produces, at any worker count.
func TestSweepIsOneTrialListWithPerPointSeeds(t *testing.T) {
	solvers := PaperSolvers()
	for _, fig := range []struct {
		name   string
		points []sweepPoint
		idx    func(p int) int64 // the figure's point index
	}{
		// Lengths 2–12: the index → (point, trial) mapping is under test,
		// and the long chains would only add branch-and-bound time.
		{"fig1", fig1Points()[:6], func(p int) int64 { return int64(2 + 2*p) }},
		{"fig3", fig3Points(), func(p int) int64 { return int64(200 + p) }},
	} {
		opt := Options{Trials: 3, Seed: 11, Quiet: true, Solvers: solvers, Progress: func(string) {}}
		var want [][][]trial // point → trial → solver
		for p, pt := range fig.points {
			recs, err := engine.Run(context.Background(), opt.Trials, 1,
				func(tr int) int64 { return opt.Seed*1_000_003 + fig.idx(p)*10_007 + int64(tr) },
				func(tr int, rng *rand.Rand) ([]trial, error) {
					net := pt.cfg.Network(rng)
					req := pickRequest(pt.cfg, rng, tr, pt.fixedLen, net.Catalog().Size())
					workload.PlacePrimariesRandom(net, req, rng)
					inst := core.NewInstance(net, req, core.Params{L: pt.cfg.HopBound})
					out := make([]trial, len(solvers))
					for i, s := range solvers {
						res, err := s.Solve(inst, rng)
						if err != nil {
							return nil, err
						}
						out[i] = record(res)
					}
					return out, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, recs)
		}
		for _, workers := range []int{1, 2, 8} {
			opt.Workers = workers
			got, err := runTrials(fig.name, "x", fig.points, opt)
			if err != nil {
				t.Fatal(err)
			}
			for p := range fig.points {
				for i, s := range solvers {
					recs := got[p][s.Name()]
					if len(recs) != opt.Trials {
						t.Fatalf("%s workers=%d point %d %s: %d records, want %d", fig.name, workers, p, s.Name(), len(recs), opt.Trials)
					}
					for tr, g := range recs {
						w := want[p][tr][i]
						g.ms, w.ms = 0, 0
						if g != w {
							t.Fatalf("%s workers=%d point %d trial %d %s: sweep %+v, per-point loop %+v", fig.name, workers, p, tr, s.Name(), g, w)
						}
					}
				}
			}
		}
	}
}
