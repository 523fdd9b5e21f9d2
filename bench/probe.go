package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lp"
	"repro/internal/matching"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/serve"
	"repro/internal/serve/wal"
	"repro/internal/stats"
)

// probeBudget is how long each probe keeps cycling through its pool (it
// always finishes at least one pass).
const probeBudget = 150 * time.Millisecond

// probeSpans is the probe pass's span store: one span per call into a layer,
// kept in memory under the probe's name and summarised into the result.
type probeSpans map[string][]float64 // name → per-call microseconds

// probeSummary is what the result JSON keeps of one probe's spans.
type probeSummary struct {
	Calls  int     `json:"calls"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	MaxUS  float64 `json:"max_us"`
}

func (ps probeSpans) summary() map[string]probeSummary {
	out := make(map[string]probeSummary, len(ps))
	for name, us := range ps {
		s := sortedCopy(us)
		p50, _ := quantile(s, 0.5)
		out[name] = probeSummary{Calls: len(s), MeanUS: mean(s), P50US: p50, MaxUS: s[len(s)-1]}
	}
	return out
}

// cycle calls fn(i) for i = 0..n-1, round after round, until probeBudget has
// passed, recording a span around every call. prep(i), when non-nil, runs
// before each call outside its span. It returns the mean span in µs and the
// mean heap allocations per call (prep's included).
func (ps probeSpans) cycle(name string, n int, prep func(i int), fn func(i int)) (meanUS, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	begin := time.Now()
	calls := 0
	for calls == 0 || time.Since(begin) < probeBudget {
		for i := 0; i < n; i++ {
			if prep != nil {
				prep(i)
			}
			t0 := time.Now()
			fn(i)
			ps[name] = append(ps[name], float64(time.Since(t0).Nanoseconds())/1e3)
			calls++
		}
	}
	runtime.ReadMemStats(&ms)
	return mean(ps[name]), float64(ms.Mallocs-mallocs0) / float64(calls)
}

var probedSolvers = []string{"ILP", "Randomized", "Heuristic", "Greedy", "Failsafe"}

// relaxation builds the root LP relaxation of an instance in core's
// aggregated encoding (count variables per position and bin, unit item
// variables priced by gain, one link row per position, one capacity row per
// cloudlet), from the instance's exported fields. core does not export its
// own builder, and the time of the simplex alone cannot be seen from outside
// the Randomized solver, so lp.solve_us is taken on this copy — and only
// while sameAsCore holds for it.
func relaxation(inst *core.Instance) *lp.Model {
	m := lp.NewModel(lp.Maximize)
	y := make([][]int, len(inst.Positions))
	for i, p := range inst.Positions {
		var link []lp.Term
		y[i] = make([]int, len(p.Bins))
		for b := range p.Bins {
			y[i][b] = m.AddVar(0, float64(min(p.Slots[b], p.K)), 0, "y")
			link = append(link, lp.Term{Var: y[i][b], Coeff: -1})
		}
		for k := 0; k < p.K; k++ {
			link = append(link, lp.Term{Var: m.AddVar(0, 1, p.Gains[k], "z"), Coeff: 1})
		}
		if len(link) > 0 {
			m.AddConstr(link, lp.EQ, 0, "link")
		}
	}
	for _, u := range inst.BinSet {
		var terms []lp.Term
		for i, p := range inst.Positions {
			for b, bu := range p.Bins {
				if bu == u {
					terms = append(terms, lp.Term{Var: y[i][b], Coeff: p.Func.Demand})
				}
			}
		}
		if len(terms) > 0 {
			m.AddConstr(terms, lp.LE, inst.Residual[u], "cap")
		}
	}
	return m
}

// sameAsCore reports whether the copy solved exactly as core's own model did
// inside the Randomized solver: the same optimum in the same number of
// pivots. When core's encoding moves on, the copy has drifted, the probe says
// so on standard error and lp.solve_us reads 0 rather than time something
// else.
func sameAsCore(sol *lp.Solution, real *core.Result) bool {
	return sol.Status == lp.Optimal && sol.Iterations == real.LPIterations && approx(sol.Objective, real.Objective, relTol)
}

// matchingInput is a matching problem of the size the Heuristic hands to the
// matching layer in its first round — usable bins on the left, each
// position's next |bins| items on the right, priced by the instance's item
// costs. It probes internal/matching on the workload's matrix sizes; what
// the Heuristic itself spends there is inside core.solve_us.Heuristic.
func matchingInput(inst *core.Instance) (nL, nR int, edges []matching.Edge) {
	binIndex := make(map[int]int)
	for _, u := range inst.BinSet {
		if inst.Residual[u] > 0 {
			binIndex[u] = len(binIndex)
		}
	}
	for _, p := range inst.Positions {
		for k := 1; k <= p.K && k <= len(p.Bins); k++ {
			for _, u := range p.Bins {
				if bi, ok := binIndex[u]; ok && inst.Residual[u] >= p.Func.Demand {
					edges = append(edges, matching.Edge{L: bi, R: nR, Cost: p.Costs[k-1]})
				}
			}
			nR++
		}
	}
	return len(binIndex), nR, edges
}

// probeLayers times direct calls into each layer's exported functions on a
// pool drawn from the workload's own generators and returns the per-layer
// metrics they yield.
func probeLayers(s *spec, seed int64, ps probeSpans) (map[string]float64, error) {
	pool, bases, err := s.pool(seed, s.chainMin)
	if err != nil {
		return nil, err
	}
	n, net := len(pool), bases[0]
	m := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed + 13))

	// core: instance build and every registered solver the paper compares,
	// plus the serving default chain.
	m["core.instance_build_us"], _ = ps.cycle("core.NewInstance", n, nil, func(i int) {
		core.NewInstance(pool[i].Net, pool[i].Req, pool[i].Params)
	})
	results := make([]*core.Result, n)
	var randomized []*core.Result
	var refreshes float64
	etaRefreshes := obs.Default().Counter("lp_eta_refreshes")
	for _, name := range probedSolvers {
		sv, ok := core.Get(name)
		if !ok {
			return nil, fmt.Errorf("solver %q is not registered", name)
		}
		var solveErr error
		eta0 := etaRefreshes.Value()
		us, allocs := ps.cycle("core.Solve."+name, n, nil, func(i int) {
			res, err := sv.Solve(pool[i], rng)
			if err != nil {
				solveErr = err
			}
			results[i] = res
		})
		if solveErr != nil {
			return nil, fmt.Errorf("probe %s: %w", name, solveErr)
		}
		m["core.solve_us."+name], m["core.allocs_per_solve."+name] = us, allocs
		if name == "Randomized" {
			randomized = append(randomized, results...)
			refreshes = float64(etaRefreshes.Value()-eta0) / float64(len(ps["core.Solve."+name]))
		}
	}

	// lp: the pool's root relaxations. The counts are the Randomized
	// solver's own (one relaxation per solve); the time is the simplex alone.
	var pivots float64
	for _, res := range randomized {
		pivots += float64(res.LPIterations)
	}
	m["lp.pivots_per_solve"] = pivots / float64(n)
	m["lp.eta_refreshes_per_solve"] = refreshes
	models := make([]*lp.Model, n)
	for i, inst := range pool {
		models[i] = relaxation(inst)
	}
	drifted := false
	us, _ := ps.cycle("lp.Solve", n, nil, func(i int) {
		if !sameAsCore(models[i].Solve(), randomized[i]) {
			drifted = true
		}
	})
	if drifted {
		fmt.Fprintf(os.Stderr, "bench: %s: the probe's LP relaxation no longer solves like core's own; lp.solve_us is not reported\n", s.name)
	} else {
		m["lp.solve_us"] = us
	}

	// matching and graph.
	type graphIn struct {
		nL, nR int
		edges  []matching.Edge
	}
	graphs := make([]graphIn, n)
	for i, inst := range pool {
		graphs[i].nL, graphs[i].nR, graphs[i].edges = matchingInput(inst)
	}
	m["matching.solve_us"], _ = ps.cycle("matching.MinCostMax", n, nil, func(i int) {
		matching.MinCostMax(graphs[i].nL, graphs[i].nR, graphs[i].edges)
	})
	cls := net.Cloudlets()
	m["graph.neighborhood_us"], _ = ps.cycle("graph.NeighborsWithinPlus", len(cls), nil, func(i int) {
		net.G.NeighborsWithinPlus(cls[i], 1)
		net.G.NeighborsWithinPlus(cls[i], 2)
	})

	// admission: primary placement, queue discipline, quota, knapsack.
	forks := make([]*mec.Network, n)
	reqs := make([]*mec.Request, n)
	refork := func(i int) {
		forks[i] = bases[i].Fork(bases[i].ResidualSnapshot())
		r := pool[i].Req
		reqs[i] = mec.NewRequest(r.ID, r.SFC, r.Expectation, r.Source, r.Destination)
	}
	var placeErr error
	m["admission.place_random_us"], _ = ps.cycle("admission.PlaceRandom", n, refork, func(i int) {
		if err := admission.PlaceRandom(forks[i], reqs[i], rng); err != nil {
			placeErr = err
		}
	})
	m["admission.place_maxrel_us"], _ = ps.cycle("admission.PlaceMaxReliability", n, refork, func(i int) {
		if err := admission.PlaceMaxReliability(forks[i], reqs[i]); err != nil {
			placeErr = err
		}
	})
	if placeErr != nil {
		return nil, fmt.Errorf("probe admission: %w", placeErr)
	}
	const ops = 512
	fq := admission.NewFairQueue[int](inprocOptions().Tenants, 8*ops, true) // deep enough that neither tenant hits its fair-share cap
	us, _ = ps.cycle("admission.FairQueue", 1, nil, func(int) {
		for k := 0; k < ops; k++ {
			fq.Push([]string{"gold", "free"}[k&1], k)
		}
		for k := 0; k < ops; k++ {
			fq.Pop()
		}
	})
	m["admission.fairqueue_ns_per_op"] = us * 1e3 / (2 * ops)
	bucket := admission.NewBucket(1, 8)
	tick := int64(0)
	us, _ = ps.cycle("admission.Bucket", 1, nil, func(int) {
		for k := 0; k < ops; k++ {
			tick++
			bucket.Refill(tick)
			bucket.TryTake()
		}
	})
	m["admission.bucket_ns_per_op"] = us * 1e3 / ops
	scarce := net.ResidualSnapshot()
	for v := range scarce {
		scarce[v] = 0.2 * net.Capacity[v]
	}
	st := s.newStream(net, seed, 1)
	cands := make([]core.AdmissionCandidate, 32)
	for i := range cands {
		req := st.next()
		c := core.AdmissionCandidate{Value: 1}
		for _, f := range req.SFC {
			ft := net.Catalog().Type(f)
			c.Demands = append(c.Demands, ft.Demand)
			c.Value += reliability.LogGain(ft.Reliability, 1)
		}
		cands[i] = c
	}
	m["admission.select_us"], _ = ps.cycle("core.SelectAdmission", 1, nil, func(int) {
		core.SelectAdmission(scarce, cls, cands, 0)
	})

	// wire: encoding/json on the request and answer types, as the handler
	// uses it (Decoder with DisallowUnknownFields; Encoder onto the writer).
	bodies := make([][]byte, n)
	answers := make([]serve.AugmentResponse, n)
	reqBytes, respBytes := 0.0, 0.0
	for i, inst := range pool {
		bodies[i] = body(serve.AugmentRequest{SFC: inst.Req.SFC, Expectation: inst.Req.Expectation, Source: inst.Req.Source, Destination: inst.Req.Destination})
		res := results[i] // the Failsafe answer, the last solver probed
		answers[i] = serve.AugmentResponse{
			ID: i + 1, Primaries: inst.Req.Primaries, Secondaries: res.Secondaries(), BackupCounts: res.Counts,
			InitialReliability: inst.InitialReliability, Reliability: res.Reliability, MetExpectation: res.MetExpectation,
			Algorithm: res.Algorithm, ServedBy: res.ServedBy, QueueWaitMS: 2.5, SolveMS: 0.05,
		}
		reqBytes += float64(len(bodies[i]))
		var size countingWriter
		if err := json.NewEncoder(&size).Encode(&answers[i]); err != nil {
			return nil, fmt.Errorf("probe wire: %w", err)
		}
		respBytes += float64(size)
	}
	var codecErr error
	m["wire.decode_us"], _ = ps.cycle("json.Decode(AugmentRequest)", n, nil, func(i int) {
		var ar serve.AugmentRequest
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ar); err != nil {
			codecErr = err
		}
	})
	var sink countingWriter
	m["wire.encode_us"], _ = ps.cycle("json.Encode(AugmentResponse)", n, nil, func(i int) {
		if err := json.NewEncoder(&sink).Encode(&answers[i]); err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("probe wire: %w", codecErr)
	}
	m["wire.request_bytes"] = reqBytes / float64(n)
	m["wire.response_bytes"] = respBytes / float64(n)

	// engine: fan-out overhead over no-op trials, and what a second worker
	// buys on the pool's Failsafe solves.
	const noops = 4096
	seedOf := func(t int) int64 { return seed + int64(t) }
	us, _ = ps.cycle("engine.RunPartial(noop)", 1, nil, func(int) {
		engine.RunPartial(context.Background(), noops, 2, seedOf,
			func(int, *rand.Rand) (int, error) { return 0, nil }, engine.FailSoftOptions{})
	})
	m["engine.overhead_us_per_trial"] = us / noops
	failsafe, _ := core.Get("Failsafe")
	solveAll := func(workers int) func(int) {
		return func(int) {
			engine.Run(context.Background(), 8*n, workers, seedOf, func(t int, r *rand.Rand) (float64, error) {
				res, err := failsafe.Solve(pool[t%n], r)
				if err != nil {
					return 0, err
				}
				return res.Reliability, nil
			})
		}
	}
	one, _ := ps.cycle("engine.Run(workers=1)", 1, nil, solveAll(1))
	two, _ := ps.cycle("engine.Run(workers=2)", 1, nil, solveAll(2))
	m["engine.speedup_2w"] = stats.Ratio(one, two)
	return m, nil
}

type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// probeWorstILP solves every instance of a pool once with the registered
// ILP and returns the slowest solve in milliseconds.
func probeWorstILP(pool []*core.Instance, ps probeSpans) (float64, error) {
	ilp, _ := core.Get("ILP")
	worst := 0.0
	for _, inst := range pool {
		t0 := time.Now()
		if _, err := ilp.Solve(inst, rand.New(rand.NewSource(1))); err != nil {
			return 0, err
		}
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		ps["core.Solve.ILP(len20)"] = append(ps["core.Solve.ILP(len20)"], us)
		worst = max(worst, us/1e3)
	}
	return worst, nil
}

// probeWAL times the log layer on a repetition's own WAL directory: replay
// it, then re-append, sync and checkpoint its entries into a fresh log.
func probeWAL(dir, scratch string, ps probeSpans) (map[string]float64, error) {
	m := make(map[string]float64)
	t0 := time.Now()
	snap, entries, err := wal.Replay(dir)
	m["wal.replay_ms"] = time.Since(t0).Seconds() * 1e3
	if err != nil {
		return nil, fmt.Errorf("probe wal replay: %w", err)
	}
	if snap == nil || len(entries) == 0 {
		return nil, fmt.Errorf("probe wal: %s holds snapshot=%v and %d entries; the run was too short to checkpoint", dir, snap != nil, len(entries))
	}
	fresh, err := os.MkdirTemp(scratch, "walprobe-*")
	if err != nil {
		return nil, err
	}
	l, err := wal.Open(fresh, wal.SyncAlways)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	tokens := make([]uint64, len(entries))
	var walErr error
	for i, e := range entries {
		t0 := time.Now()
		tokens[i], err = l.Append(e)
		ps["wal.Append"] = append(ps["wal.Append"], float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			walErr = err
		}
		t0 = time.Now()
		_, err = l.Sync(tokens[i])
		ps["wal.Sync"] = append(ps["wal.Sync"], float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			walErr = err
		}
	}
	if walErr != nil {
		return nil, fmt.Errorf("probe wal: %w", walErr)
	}
	m["wal.append_us"] = mean(ps["wal.Append"])
	m["wal.sync_us_p50"], _ = quantile(sortedCopy(ps["wal.Sync"]), 0.5)
	fi, err := os.Stat(filepath.Join(fresh, "wal.log"))
	if err != nil {
		return nil, err
	}
	m["wal.bytes_per_entry"] = float64(fi.Size()) / float64(len(entries))
	t0 = time.Now()
	err = l.WriteSnapshot(*snap)
	m["wal.snapshot_ms"] = time.Since(t0).Seconds() * 1e3
	ps["wal.WriteSnapshot"] = append(ps["wal.WriteSnapshot"], m["wal.snapshot_ms"]*1e3)
	if err != nil {
		return nil, fmt.Errorf("probe wal snapshot: %w", err)
	}
	return m, nil
}
