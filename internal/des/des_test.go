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

// chain parses a fallback spec the way cmd/dessim does.
func chain(t *testing.T, spec string) core.Solver {
	t.Helper()
	sv, err := core.ParseFallback(strings.ReplaceAll(spec, ",", "+"), spec)
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
