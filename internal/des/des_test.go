package des

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func baseConfig() Config {
	wl := workload.NewDefaultConfig()
	wl.Expectation = 0.99
	wl.SFCLenMin, wl.SFCLenMax = 3, 6
	return Config{
		ArrivalRate: 0.5,
		MeanHold:    10,
		Horizon:     200,
		Warmup:      20,
		Workload:    wl,
	}
}

// chain parses a -solver spec the way cmd/dessim does.
func chain(t *testing.T, spec string) core.Solver {
	t.Helper()
	sv, err := core.ParseSolver("dessim", spec)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestRunBasics(t *testing.T) {
	m, err := Run(baseConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Arrivals == 0 {
		t.Fatal("no arrivals simulated")
	}
	if m.Accepted+m.Blocked != m.Arrivals {
		t.Fatalf("accepted %d + blocked %d != arrivals %d", m.Accepted, m.Blocked, m.Arrivals)
	}
	if m.Met > m.Accepted {
		t.Fatal("met exceeds accepted")
	}
	if m.MeanUtilization < 0 || m.MeanUtilization > 1 {
		t.Fatalf("utilization %v out of [0,1]", m.MeanUtilization)
	}
	if m.MeanReliability <= 0 || m.MeanReliability > 1 {
		t.Fatalf("mean reliability %v", m.MeanReliability)
	}
}

func TestLedgerConservation(t *testing.T) {
	// Run fails when, with every session released, the service's ledger is
	// not back at its initial state.
	if _, err := Run(baseConfig(), rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(baseConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs with one seed differ:\n%+v\nvs\n%+v", a, b)
	}
}

func TestBlockingGrowsWithLoad(t *testing.T) {
	low := baseConfig()
	low.ArrivalRate = 0.2
	high := baseConfig()
	high.ArrivalRate = 5
	ml, err := Run(low, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	mh, err := Run(high, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if mh.BlockingProbability < ml.BlockingProbability {
		t.Fatalf("blocking should grow with load: %v vs %v", ml.BlockingProbability, mh.BlockingProbability)
	}
	if mh.MeanUtilization < ml.MeanUtilization {
		t.Fatalf("utilization should grow with load: %v vs %v", ml.MeanUtilization, mh.MeanUtilization)
	}
}

func TestLittlesLawLowLoad(t *testing.T) {
	// Under negligible blocking, mean concurrent sessions ≈ λ·E[hold].
	cfg := baseConfig()
	cfg.ArrivalRate = 0.1
	cfg.MeanHold = 5
	cfg.Horizon = 3000
	cfg.Warmup = 100
	m, err := Run(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockingProbability > 0.05 {
		t.Skipf("load not low enough for Little's law check (blocking %v)", m.BlockingProbability)
	}
	want := cfg.ArrivalRate * cfg.MeanHold // 0.5
	if math.Abs(m.MeanActive-want) > 0.25*want+0.15 {
		t.Fatalf("Little's law: mean active %v, want ≈ %v", m.MeanActive, want)
	}
}

func TestWarmupExcludesTransient(t *testing.T) {
	cfg := baseConfig()
	cfg.Warmup = 150 // most of the horizon
	m, err := Run(cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	full := baseConfig()
	full.Warmup = 0
	mf, err := Run(full, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Arrivals >= mf.Arrivals {
		t.Fatalf("warmup should reduce counted arrivals: %d vs %d", m.Arrivals, mf.Arrivals)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := baseConfig()
	bad.ArrivalRate = 0
	if _, err := Run(bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero arrival rate accepted")
	}
	bad = baseConfig()
	bad.Warmup = bad.Horizon
	if _, err := Run(bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("warmup >= horizon accepted")
	}
	bad = baseConfig()
	bad.Order = "bogus"
	if _, err := Run(bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("unknown order accepted")
	}
}

// TestOrdersDealOneStream pins what an order may change: "" is the arrival
// order, and every order sees the same arrival times.
func TestOrdersDealOneStream(t *testing.T) {
	run := func(order string) *Metrics {
		t.Helper()
		cfg := baseConfig()
		cfg.Order = order
		m, err := Run(cfg, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatalf("order %q: %v", order, err)
		}
		return m
	}
	base := run("")
	if arrival := run("arrival"); !reflect.DeepEqual(base, arrival) {
		t.Fatalf("order \"\" and \"arrival\" differ:\n%+v\nvs\n%+v", base, arrival)
	}
	for _, order := range Orders[1:] {
		if m := run(order); m.Arrivals != base.Arrivals {
			t.Fatalf("order %q counts %d arrivals, arrival order %d", order, m.Arrivals, base.Arrivals)
		}
	}
}

// freeBeforeSolves runs cfg with a Failsafe solver that records, at every
// solve, the capacity free before the request's primaries took theirs.
func freeBeforeSolves(t *testing.T, cfg Config) []float64 {
	t.Helper()
	failsafe, _ := core.Get("Failsafe")
	var free []float64
	cfg.Solver = core.NewSolverFunc("recorder", func(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
		sum := 0.0
		for _, r := range inst.Residual {
			sum += r
		}
		for _, d := range inst.Req.Demands(inst.Net.Catalog()) {
			sum += d
		}
		free = append(free, sum)
		return failsafe.Solve(inst, rng)
	})
	if _, err := Run(cfg, rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err) // a ledger that does not balance included
	}
	return free
}

// TestInfiniteHoldOnlyDrains pins the batch-admission regime: with
// MeanHold = +Inf no session departs before the horizon, so the capacity
// free ahead of each request never rises, and the end-of-run release of
// every session still balances the ledger. The same run with finite holds
// shows the check sees a release.
func TestInfiniteHoldOnlyDrains(t *testing.T) {
	cfg := baseConfig()
	cfg.ArrivalRate, cfg.Warmup = 2, 0
	rises := func(free []float64) int {
		n := 0
		for i := 1; i < len(free); i++ {
			if free[i] > free[i-1]+1e-6 {
				n++
			}
		}
		return n
	}
	cfg.MeanHold = math.Inf(1)
	if free := freeBeforeSolves(t, cfg); len(free) < 2 || rises(free) != 0 {
		t.Fatalf("infinite holds: %d solves, %d rises in free capacity", len(free), rises(free))
	}
	cfg.MeanHold = 10
	if rises(freeBeforeSolves(t, cfg)) == 0 {
		t.Fatal("finite holds released nothing the recorder could see")
	}
}

// TestSolversAllWork runs every registered solver as the service's solver.
func TestSolversAllWork(t *testing.T) {
	names := core.Names()
	if len(names) < 4 {
		t.Fatalf("registry has %d solvers, want at least the 4 built-ins", len(names))
	}
	for _, name := range names {
		cfg := baseConfig()
		cfg.Horizon, cfg.Warmup = 60, 5
		cfg.Solver, _ = core.Get(name)
		m, err := Run(cfg, rand.New(rand.NewSource(10)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Accepted == 0 {
			t.Fatalf("%s: nothing admitted", name)
		}
	}
}

func TestILPVariant(t *testing.T) {
	cfg := baseConfig()
	cfg.Horizon = 60
	cfg.Warmup = 5
	cfg.Solver = chain(t, "ILP,Heuristic,Greedy")
	m, err := Run(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("ILP variant failed (a capacity leak is an error): %v", err)
	}
	if m.ServedByStage["ILP"] == 0 {
		t.Fatalf("exact solver served nothing: %v", m.ServedByStage)
	}
}

// TestOrderedRunBasic pins sane counts for every order when admitted
// sessions never depart: the fresh network admits someone, and no order
// loses or invents a request.
func TestOrderedRunBasic(t *testing.T) {
	for _, order := range Orders {
		cfg := baseConfig()
		cfg.Order, cfg.MeanHold, cfg.Warmup = order, math.Inf(1), 0
		m, err := Run(cfg, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatalf("%s: %v", order, err)
		}
		if m.Accepted == 0 || m.Accepted+m.Blocked != m.Arrivals {
			t.Fatalf("%s: accepted %d + blocked %d of %d arrivals", order, m.Accepted, m.Blocked, m.Arrivals)
		}
		if m.Met > m.Accepted {
			t.Fatalf("%s: met %d > accepted %d", order, m.Met, m.Accepted)
		}
		if m.MeanReliability <= 0 || m.MeanReliability > 1 {
			t.Fatalf("%s: mean reliability %v", order, m.MeanReliability)
		}
	}
}

// TestOrdersRunCleanlyUnderScarcity drives every order into blocking with
// no departures: each run completes with consistent counts, and one seed
// gives one set of metrics.
func TestOrdersRunCleanlyUnderScarcity(t *testing.T) {
	for _, order := range Orders {
		cfg := baseConfig()
		cfg.Order, cfg.MeanHold, cfg.ArrivalRate, cfg.Warmup = order, math.Inf(1), 5, 0
		m, err := Run(cfg, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatalf("%s: %v", order, err)
		}
		if m.Blocked == 0 {
			t.Fatalf("%s: no request blocked, so capacity never ran short", order)
		}
		if m.Met > m.Accepted || m.Accepted+m.Blocked != m.Arrivals {
			t.Fatalf("%s: inconsistent metrics %+v", order, m)
		}
		again, err := Run(cfg, rand.New(rand.NewSource(12)))
		if err != nil || !reflect.DeepEqual(m, again) {
			t.Fatalf("%s: one seed, two results (err %v):\n%+v\nvs\n%+v", order, err, m, again)
		}
	}
}

// TestUnknownOrderError pins that Run refuses an order it does not know,
// naming it and every order it accepts.
func TestUnknownOrderError(t *testing.T) {
	cfg := baseConfig()
	cfg.Order = "bogus"
	_, err := Run(cfg, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("unknown order accepted")
	}
	for _, want := range append([]string{"bogus"}, Orders...) {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// TestILPAtLeastAsGoodAsGreedyPerRequest hands every request the service
// admits to both the exact solver and the greedy one on the same instance:
// wherever the exact solver proves optimality, its reliability is at least
// greedy's.
func TestILPAtLeastAsGoodAsGreedyPerRequest(t *testing.T) {
	ilp, _ := core.Get("ILP")
	greedy, _ := core.Get("Greedy")
	compared := 0
	cfg := baseConfig()
	cfg.Horizon, cfg.Warmup = 40, 5
	cfg.Solver = core.NewSolverFunc("compare", func(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
		ir, err := ilp.Solve(inst, rng)
		if err != nil {
			return nil, err
		}
		gr, err := greedy.Solve(inst, rand.New(rand.NewSource(0)))
		if err != nil {
			return nil, err
		}
		if ir.Proven && !gr.Violated {
			compared++
			if ir.Reliability < gr.Reliability-1e-9 {
				t.Errorf("request %d: ILP %v worse than greedy %v", compared, ir.Reliability, gr.Reliability)
			}
		}
		return ir, nil
	})
	if _, err := Run(cfg, rand.New(rand.NewSource(13))); err != nil {
		t.Fatal(err)
	}
	if compared == 0 {
		t.Fatal("no request was solved to proven optimality")
	}
}
