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
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/reliability"
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

// BenchmarkFig1Sweep runs the whole Fig. 1 sweep that the offline-fig1
// benchmark workload runs (`experiments -fig 1 -trials 40 -seed 42`: the
// paper's three solvers, 40 trials at each of the ten lengths) on GOMAXPROCS
// workers. ms/op is one sweep's wall time without process start-up; B/op is
// everything the sweep allocates, networks and instances included.
func BenchmarkFig1Sweep(b *testing.B) {
	b.ReportAllocs()
	opt := experiments.Options{Trials: 40, Seed: 42, Quiet: true, Solvers: experiments.PaperSolvers()}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountBBHard times the exact solver on the Fig. 1 seed-42 trials
// whose count trees run to thousands of nodes (the solver golden's hard
// records, the 40-trial sweep's two largest trees, and the 100-trial sweep's
// slowest trials), plus the hops ablation's slowest trial at l = 4, each
// sampled exactly as its sweep samples it: where the sweeps' time goes.
// nodes/op is the search's size; a change that only makes nodes cheaper
// leaves it where it was. proven/op is 1 when the solve proved its answer
// optimal and 0 when a pack query ran its budget dry, a relaxed-tolerance
// prune fired or the node budget ran out. relaxed/op counts the node
// relaxations actually solved (the box bound prunes the rest of the nodes
// unrelaxed) and warm/op those that resumed their parent's greedy. On the
// Fig. 1 trees most of the time is the node relaxation's augmenting-path
// searches (about 39 a relaxation on length 18 trial 32); Hops4/Trial7's is
// pack queries.
func BenchmarkCountBBHard(b *testing.B) {
	cfg := workload.NewDefaultConfig()
	ilp, _ := core.Get("ILP")
	run := func(name string, inst *core.Instance) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			nodes, proven := 0, 0
			relaxed, warm := obs.Default().Counter("ilp_bnb_relaxed"), obs.Default().Counter("ilp_bnb_warm")
			relaxed0, warm0 := relaxed.Value(), warm.Value()
			for i := 0; i < b.N; i++ {
				res, err := ilp.Solve(inst, nil)
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
				if res.Proven {
					proven++
				}
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(proven)/float64(b.N), "proven/op")
			b.ReportMetric(float64(relaxed.Value()-relaxed0)/float64(b.N), "relaxed/op")
			b.ReportMetric(float64(warm.Value()-warm0)/float64(b.N), "warm/op")
		})
	}
	for _, h := range []struct{ length, trial int }{
		{20, 23}, {20, 27}, {16, 30}, {16, 31}, {14, 35}, {18, 32}, {20, 35},
		{20, 89}, {14, 89}, {12, 58}, {18, 48}, {20, 52},
	} {
		rng := rand.New(rand.NewSource(42*1_000_003 + int64(h.length)*10_007 + int64(h.trial)))
		net := cfg.Network(rng)
		req := cfg.RequestWithLength(rng, h.trial, h.length, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		run(fmt.Sprintf("SFCLen%d/Trial%d", h.length, h.trial), core.NewInstance(net, req, core.Params{L: cfg.HopBound}))
	}
	// The hops ablation's point l = 4 draws variable-length chains (seed
	// offset (300+l)·10,007).
	hops := workload.NewDefaultConfig()
	hops.HopBound = 4
	const trial = 7
	rng := rand.New(rand.NewSource(42*1_000_003 + 304*10_007 + trial))
	net := hops.Network(rng)
	req := hops.Request(rng, trial, net.Catalog().Size())
	workload.PlacePrimariesRandom(net, req, rng)
	run(fmt.Sprintf("Hops%d/Trial%d", hops.HopBound, trial), core.NewInstance(net, req, core.Params{L: hops.HopBound}))
}

// BenchmarkServeILPSolve times the exact solver on requests of the
// benchmark's wire-solver shape (wireSolverPool). Those instances need only
// a node or two of search, and every root closes without a Heuristic seed,
// so allocs/op and B/op show what the non-search work — the flow
// relaxation and its density order, the trim back to ρ — costs.
func BenchmarkServeILPSolve(b *testing.B) {
	pool := wireSolverPool()
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

// wireSolverPool builds 64 instances of the benchmark's wire-solver shape:
// the default configuration at hop bound 2, residual 1.0 and capacities ×60
// (network seed 1), chains of 8–12 functions at ρ 0.99 with random
// primaries.
func wireSolverPool() []*core.Instance {
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
	return pool
}

// wireDefaultPool builds 64 instances of the benchmark's wire-default shape,
// which augmentd's default solver (Failsafe) serves: the default
// configuration at hop bound 1, residual 1.0 and capacities ×20 (network
// seed 1), chains of 3–6 functions at ρ 0.95 with random primaries.
func wireDefaultPool() []*core.Instance {
	cfg := workload.NewDefaultConfig()
	cfg.HopBound = 1
	cfg.ResidualFraction = 1.0
	cfg.CapacityMin *= 20
	cfg.CapacityMax *= 20
	cfg.Expectation = 0.95
	net := cfg.Network(rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(7))
	pool := make([]*core.Instance, 64)
	for i := range pool {
		req := cfg.RequestWithLength(rng, i, 3+rng.Intn(4), net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		pool[i] = core.NewInstance(net, req, core.Params{L: cfg.HopBound})
	}
	return pool
}

// BenchmarkServeFailsafeSolve times the default serving solver (Failsafe:
// Heuristic, then Greedy) on requests of the wire-default shape
// (wireDefaultPool); allocs/op is what TestServeFailsafeAllocs holds.
func BenchmarkServeFailsafeSolve(b *testing.B) {
	pool := wireDefaultPool()
	failsafe, _ := core.Get("Failsafe")
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := failsafe.Solve(pool[i%len(pool)], rng); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkHungarianMatching times the matching substrate: Random64x16 is a
// one-shot MinCostMax on a random 64×16 graph; Groups and Edges solve, on one
// reused Matcher, every matching round SolveHeuristic runs on the wire-solver
// pool's components at ρ = 1 (seedRounds; the exact solver ran them as its
// seed before it seeded only open roots) — Groups in the group form
// Algorithm 2 uses, Edges in the edge form on the same rounds expanded. An
// op is one pass over all rounds.
func BenchmarkHungarianMatching(b *testing.B) {
	b.Run("Random64x16", func(b *testing.B) {
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matching.MinCostMax(nL, nR, edges)
		}
	})

	var rounds []seedRound
	for _, inst := range wireSolverPool() {
		rounds = append(rounds, seedRounds(inst)...)
	}
	b.Run("Groups", func(b *testing.B) {
		var m matching.Matcher
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range rounds {
				m.SolveGroups(r.nL, r.groups)
			}
		}
		b.ReportMetric(float64(len(rounds)), "rounds/op")
	})
	b.Run("Edges", func(b *testing.B) {
		type edgeRound struct {
			nL, nR int
			edges  []matching.Edge
		}
		expanded := make([]edgeRound, len(rounds))
		for k, r := range rounds {
			e := edgeRound{nL: r.nL}
			for _, g := range r.groups {
				for _, c := range g.Costs {
					for _, l := range g.Rows {
						e.edges = append(e.edges, matching.Edge{L: l, R: e.nR, Cost: c})
					}
					e.nR++
				}
			}
			expanded[k] = e
		}
		var m matching.Matcher
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range expanded {
				m.Solve(r.nL, r.nR, r.edges)
			}
		}
	})
}

// seedRound is one recorded matching round: nL bins and one group per chain
// position of the component.
type seedRound struct {
	nL     int
	groups []matching.Group
}

// seedRounds replays the matching rounds SolveHeuristic runs when it seeds the
// exact solver on inst (where a component's root relaxation stays open) — on
// each component of two or more positions that share bins, at ρ = 1 — solving
// and committing each with the group form as
// Algorithm 2 does, and records every round's graph.
func seedRounds(inst *core.Instance) []seedRound {
	// Components: positions joined by a shared bin.
	comp := make([]int, len(inst.Positions))
	var find func(int) int
	find = func(i int) int {
		if comp[i] != i {
			comp[i] = find(comp[i])
		}
		return comp[i]
	}
	owner := map[int]int{}
	for i, p := range inst.Positions {
		comp[i] = i
		for _, u := range p.Bins {
			if o, ok := owner[u]; ok {
				comp[find(i)] = find(o)
			} else {
				owner[u] = i
			}
		}
	}
	members := map[int][]int{}
	for i := range inst.Positions {
		members[find(i)] = append(members[find(i)], i)
	}

	var rounds []seedRound
	for i := range inst.Positions {
		positions := members[i]
		if len(positions) < 2 {
			continue
		}
		residual := append([]float64(nil), inst.Residual...)
		placed := make([]int, len(positions))
		var m matching.Matcher
		for {
			achieved := 1.0
			for k, pi := range positions {
				achieved *= reliability.Accumulated(inst.Positions[pi].Func.Reliability, placed[k])
			}
			if reliability.MeetsExpectation(achieved, 1) {
				break
			}
			binIndex := map[int]int{}
			var bins []int
			for _, u := range inst.BinSet {
				if residual[u] > 0 && find(owner[u]) == i {
					binIndex[u] = len(bins)
					bins = append(bins, u)
				}
			}
			groups := make([]matching.Group, len(positions))
			edges := 0
			for k, pi := range positions {
				p := &inst.Positions[pi]
				items := p.Costs[placed[k]:min(p.K, placed[k]+len(p.Bins))]
				var rows []int
				for _, u := range p.Bins {
					if bi, ok := binIndex[u]; ok && len(items) > 0 && residual[u] >= p.Func.Demand {
						rows = append(rows, bi)
					}
				}
				groups[k] = matching.Group{Rows: rows, Costs: items}
				edges += len(rows) * len(items)
			}
			if edges == 0 {
				break
			}
			res := m.SolveGroups(len(bins), groups)
			if res.Cardinality == 0 {
				break
			}
			rounds = append(rounds, seedRound{nL: len(bins), groups: groups})
			col := 0
			for k, g := range groups {
				for _, bi := range res.MatchR[col : col+len(g.Costs)] {
					if bi >= 0 {
						residual[bins[bi]] -= inst.Positions[positions[k]].Func.Demand
						placed[k]++
					}
				}
				col += len(g.Costs)
			}
		}
	}
	return rounds
}

func BenchmarkWaxmanTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		topology.Waxman(topology.DefaultWaxman(100), rng)
	}
}

// BenchmarkInstanceConstruction times core.NewInstance on one default
// 10-function request, and on pools of requests in two serving workloads'
// shapes, each on its benchmark network (residual 1.0, network seed 1):
// inproc-waves (capacities ×64, chains 3–6, l 1) and wire-solver (×60,
// chains 8–12, l 2).
func BenchmarkInstanceConstruction(b *testing.B) {
	cfg := workload.NewDefaultConfig()
	rng := rand.New(rand.NewSource(21))
	net := cfg.Network(rng)
	req := cfg.RequestWithLength(rng, 0, 10, net.Catalog().Size())
	workload.PlacePrimariesRandom(net, req, rng)
	b.Run("Default", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.NewInstance(net, req, core.Params{L: 1})
		}
	})
	for _, sh := range []struct {
		name                  string
		scale, rho            float64
		l, chainMin, chainMax int
	}{
		{"InprocWaves", 64, 0.95, 1, 3, 6},
		{"WireSolver", 60, 0.99, 2, 8, 12},
	} {
		cfg := workload.NewDefaultConfig()
		cfg.HopBound = sh.l
		cfg.ResidualFraction = 1.0
		cfg.CapacityMin *= sh.scale
		cfg.CapacityMax *= sh.scale
		cfg.Expectation = sh.rho
		net := cfg.Network(rand.New(rand.NewSource(1)))
		rng := rand.New(rand.NewSource(7))
		reqs := make([]*mec.Request, 64)
		for i := range reqs {
			reqs[i] = cfg.RequestWithLength(rng, i, sh.chainMin+rng.Intn(sh.chainMax-sh.chainMin+1), net.Catalog().Size())
			workload.PlacePrimariesRandom(net, reqs[i], rng)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.NewInstance(net, reqs[i%len(reqs)], core.Params{L: sh.l})
			}
		})
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
