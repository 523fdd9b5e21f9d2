// Package repro_test holds the benchmark harness: one testing.B benchmark
// per figure/sub-plot series of the paper's evaluation (Section 7), plus
// micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks measure per-request solver latency on workloads sampled
// exactly as in the corresponding experiment point; the reported reliability
// series themselves are produced by `go run ./cmd/experiments` (see
// EXPERIMENTS.md). Each benchmark pre-samples a pool of instances outside
// the timer so only solving is measured.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/lp"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/workload"
)

// instancePool pre-builds augmentation instances for a configuration.
func instancePool(cfg workload.Config, fixedLen int, n int, seed int64) []*core.Instance {
	pool := make([]*core.Instance, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		net := cfg.Network(rng)
		var req = cfg.Request(rng, i, net.Catalog().Size())
		if fixedLen > 0 {
			req = cfg.RequestWithLength(rng, i, fixedLen, net.Catalog().Size())
		}
		workload.PlacePrimariesRandom(net, req, rng)
		pool[i] = core.NewInstance(net, req, core.Params{L: cfg.HopBound})
	}
	return pool
}

const poolSize = 16

func benchSolver(b *testing.B, pool []*core.Instance, alg string) {
	sv, ok := core.Get(alg)
	if !ok {
		b.Fatalf("solver %q not registered", alg)
	}
	rng := rand.New(rand.NewSource(99))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Solve(pool[i%len(pool)], rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: running time vs SFC length (sub-plot 1(c); the same sweep
// regenerates 1(a)/1(b) via cmd/experiments). ---

func BenchmarkFig1(b *testing.B) {
	for _, length := range []int{2, 8, 14, 20} {
		cfg := workload.NewDefaultConfig()
		pool := instancePool(cfg, length, poolSize, 1000+int64(length))
		for _, alg := range []string{"ILP", "Randomized", "Heuristic"} {
			b.Run(fmt.Sprintf("SFCLen%d/%s", length, alg), func(b *testing.B) {
				benchSolver(b, pool, alg)
			})
		}
	}
}

// BenchmarkCountBBHard times the exact solver on the Fig. 1 seed-42 trials
// whose count trees run to thousands of nodes (the solver golden's hard
// records, sampled exactly as the sweep samples them): where the sweep's
// time goes. nodes/op is the search's size; a change that only makes nodes
// cheaper leaves it where it was.
func BenchmarkCountBBHard(b *testing.B) {
	cfg := workload.NewDefaultConfig()
	ilp, _ := core.Get("ILP")
	for _, h := range []struct{ length, trial int }{{20, 23}, {20, 27}, {16, 30}, {16, 31}, {14, 35}} {
		rng := rand.New(rand.NewSource(42*1_000_003 + int64(h.length)*10_007 + int64(h.trial)))
		net := cfg.Network(rng)
		req := cfg.RequestWithLength(rng, h.trial, h.length, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := core.NewInstance(net, req, core.Params{L: cfg.HopBound})
		b.Run(fmt.Sprintf("SFCLen%d/Trial%d", h.length, h.trial), func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				res, err := ilp.Solve(inst, nil)
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkServeILPSolve times the exact solver on requests of the
// benchmark's wire-solver shape: the default configuration at hop bound 2,
// residual 1.0 and capacities ×60 (network seed 1), chains of 8–12 functions
// at ρ 0.99 with random primaries. Those instances need only a node or two
// of search, so allocs/op and B/op show what the non-search work — the
// Heuristic seed, the trim back to ρ, the flow relaxation — costs.
func BenchmarkServeILPSolve(b *testing.B) {
	cfg := workload.NewDefaultConfig()
	cfg.HopBound = 2
	cfg.ResidualFraction = 1.0
	cfg.CapacityMin *= 60
	cfg.CapacityMax *= 60
	cfg.Expectation = 0.99
	net := cfg.Network(rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(7))
	pool := make([]*core.Instance, 64)
	for i := range pool {
		req := cfg.RequestWithLength(rng, i, 8+rng.Intn(5), net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		pool[i] = core.NewInstance(net, req, core.Params{L: cfg.HopBound})
	}
	ilp, _ := core.Get("ILP")
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		res, err := ilp.Solve(pool[i%len(pool)], nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes += res.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// --- Figure 2: running time vs function reliability (sub-plot 2(c)). ---

func BenchmarkFig2(b *testing.B) {
	for _, iv := range []struct{ lo, hi float64 }{{0.55, 0.65}, {0.85, 0.95}} {
		cfg := workload.NewDefaultConfig()
		cfg.ReliabilityMin, cfg.ReliabilityMax = iv.lo, iv.hi
		pool := instancePool(cfg, 0, poolSize, int64(2000+100*iv.lo))
		for _, alg := range []string{"ILP", "Randomized", "Heuristic"} {
			b.Run(fmt.Sprintf("Rel%02.0f/%s", iv.lo*100, alg), func(b *testing.B) {
				benchSolver(b, pool, alg)
			})
		}
	}
}

// --- Figure 3: running time vs residual capacity (sub-plot 3(c)). ---

func BenchmarkFig3(b *testing.B) {
	for _, frac := range []float64{1.0 / 16, 1.0 / 4, 1} {
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = frac
		pool := instancePool(cfg, 0, poolSize, int64(3000+1000*frac))
		for _, alg := range []string{"ILP", "Randomized", "Heuristic"} {
			b.Run(fmt.Sprintf("Residual%.4f/%s", frac, alg), func(b *testing.B) {
				benchSolver(b, pool, alg)
			})
		}
	}
}

// --- Ablation: hop bound l (DESIGN.md experiment index, Ablation A). ---

func BenchmarkAblationHops(b *testing.B) {
	for _, l := range []int{1, 2, 4} {
		cfg := workload.NewDefaultConfig()
		cfg.HopBound = l
		pool := instancePool(cfg, 0, poolSize, int64(4000+l))
		for _, alg := range []string{"ILP", "Heuristic"} {
			b.Run(fmt.Sprintf("L%d/%s", l, alg), func(b *testing.B) {
				benchSolver(b, pool, alg)
			})
		}
	}
}

// --- Ablation: ILP objective formulation (Ablation B). ---

func BenchmarkAblationObjective(b *testing.B) {
	cfg := workload.NewDefaultConfig()
	pool := instancePool(cfg, 8, poolSize, 5000)
	for _, obj := range []struct {
		name string
		o    core.Objective
	}{{"LogGain", core.ObjectiveLogGain}, {"PaperCost", core.ObjectivePaperCost}} {
		b.Run(obj.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveILP(pool[i%len(pool)], core.ILPOptions{Objective: obj.o}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks. ---

func BenchmarkSimplexAssignmentLP(b *testing.B) {
	build := func() *lp.Model {
		rng := rand.New(rand.NewSource(7))
		n := 12
		m := lp.NewModel(lp.Minimize)
		vars := make([][]int, n)
		for i := 0; i < n; i++ {
			vars[i] = make([]int, n)
			for j := 0; j < n; j++ {
				vars[i][j] = m.AddVar(0, 1, rng.Float64()*10, "x")
			}
		}
		for i := 0; i < n; i++ {
			var row, col []lp.Term
			for j := 0; j < n; j++ {
				row = append(row, lp.Term{Var: vars[i][j], Coeff: 1})
				col = append(col, lp.Term{Var: vars[j][i], Coeff: 1})
			}
			m.AddConstr(row, lp.EQ, 1, "r")
			m.AddConstr(col, lp.EQ, 1, "c")
		}
		return m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := build().Solve(); s.Status != lp.Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

func BenchmarkHungarianMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	var edges []matching.Edge
	nL, nR := 64, 16
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Float64() < 0.4 {
				edges = append(edges, matching.Edge{L: l, R: r, Cost: rng.Float64() * 5})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.MinCostMax(nL, nR, edges)
	}
}

func BenchmarkWaxmanTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		topology.Waxman(topology.DefaultWaxman(100), rng)
	}
}

func BenchmarkInstanceConstruction(b *testing.B) {
	cfg := workload.NewDefaultConfig()
	rng := rand.New(rand.NewSource(21))
	net := cfg.Network(rng)
	req := cfg.RequestWithLength(rng, 0, 10, net.Catalog().Size())
	workload.PlacePrimariesRandom(net, req, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewInstance(net, req, core.Params{L: 1})
	}
}

// BenchmarkSweepPoint measures a full experiment point end-to-end (all three
// paper algorithms, one trial) — the unit of work cmd/experiments repeats.
func BenchmarkSweepPoint(b *testing.B) {
	opt := experiments.Options{Trials: 1, Seed: 7, Quiet: true, Solvers: experiments.PaperSolvers()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Trial engine: parallel scaling over one fixed Fig-1 point. ---

// benchmarkEngineWorkers runs the deterministic trial engine on the Figure 1
// SFC-length-8 point (all three paper solvers, 16 trials per iteration) with
// a fixed worker count, so `go test -bench Engine_Workers` tracks the
// parallel speedup the engine buys on this hardware.
func benchmarkEngineWorkers(b *testing.B, workers int) {
	cfg := workload.NewDefaultConfig()
	solvers := experiments.PaperSolvers()
	const trials = 16
	seed := func(t int) int64 { return 42*1_000_003 + 8*10_007 + int64(t) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := engine.Run(context.Background(), trials, workers, seed,
			func(t int, rng *rand.Rand) (float64, error) {
				net := cfg.Network(rng)
				req := cfg.RequestWithLength(rng, t, 8, net.Catalog().Size())
				workload.PlacePrimariesRandom(net, req, rng)
				inst := core.NewInstance(net, req, core.Params{L: cfg.HopBound})
				rel := 0.0
				for _, sv := range solvers {
					res, err := sv.Solve(inst, rng)
					if err != nil {
						return 0, err
					}
					rel = res.Reliability
				}
				return rel, nil
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_Workers1(b *testing.B) { benchmarkEngineWorkers(b, 1) }
func BenchmarkEngine_Workers4(b *testing.B) { benchmarkEngineWorkers(b, 4) }
func BenchmarkEngine_Workers8(b *testing.B) { benchmarkEngineWorkers(b, 8) }

// --- Observability: the instrumentation hot path. ---

// BenchmarkObsRegistry pins the cost of the solver wrapper's per-solve
// bookkeeping: a cached counter increment must stay in single-digit
// nanoseconds (budget: <100ns/op) so instrumenting every Solve is free
// relative to even the heuristic's microsecond-scale runtime. The lookup
// benchmarks quantify why the wrapper caches its metric handles instead of
// resolving them per call.
func BenchmarkObsRegistry(b *testing.B) {
	r := obs.NewRegistry()
	b.Run("counter-inc", func(b *testing.B) {
		c := r.Counter("bench_total")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := r.Histogram("bench_seconds", obs.DurationBuckets)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%1000) * 1e-5)
		}
	})
	b.Run("lookup-counter", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Counter("bench_lookup_total", "solver", "ILP").Inc()
		}
	})
}
