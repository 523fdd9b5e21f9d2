package main

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// testWorld is a fresh full-capacity world served by the named solver.
func testWorld(t *testing.T, seed int64, n int, rho float64, solver string) world {
	t.Helper()
	sv, ok := core.Get(solver)
	if !ok {
		t.Fatalf("solver %q not registered", solver)
	}
	return world{seed: seed, n: n, rho: rho, residual: 1.0, l: 1, solver: sv}
}

// totalResidual is the capacity runPolicy's sampled network starts with.
func totalResidual(w world) float64 {
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = w.residual
	net := cfg.Network(rand.New(rand.NewSource(w.seed)))
	total := 0.0
	for _, v := range net.Cloudlets() {
		total += net.Residual(v)
	}
	return total
}

func TestRunBasic(t *testing.T) {
	sum, err := runPolicy("arrival", testWorld(t, 1, 10, 0.99, "Heuristic"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.admitted == 0 || sum.admitted > 10 {
		t.Fatalf("admitted %d of 10 on a fresh network", sum.admitted)
	}
	if sum.met > sum.admitted {
		t.Fatalf("met %d > admitted %d", sum.met, sum.admitted)
	}
	if sum.meanReliability <= 0 || sum.meanReliability > 1 {
		t.Fatalf("mean reliability %v", sum.meanReliability)
	}
}

func TestCapacityMonotoneDrain(t *testing.T) {
	w := testWorld(t, 2, 8, 0.999, "Heuristic")
	sum, err := runPolicy("arrival", w)
	if err != nil {
		t.Fatal(err)
	}
	if before := totalResidual(w); sum.residualLeft >= before {
		t.Fatalf("no capacity consumed: %v >= %v", sum.residualLeft, before)
	}
}

func TestPoliciesProduceSameAdmittedSetSizeOrBetter(t *testing.T) {
	// All policies must run cleanly under scarcity (weak check: every run
	// completes and its counts are sane), and the same seed must give the
	// same row twice.
	for _, pol := range policyNames {
		w := testWorld(t, 3, 20, 0.995, "Heuristic")
		w.residual = 0.15
		sum, err := runPolicy(pol, w)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if sum.met > sum.admitted || sum.admitted > 20 {
			t.Fatalf("%v: inconsistent summary %+v", pol, sum)
		}
		if again, _ := runPolicy(pol, w); again != sum {
			t.Fatalf("%v: one seed, two rows: %+v vs %+v", pol, sum, again)
		}
	}
}

// TestSolversAllWork runs every registered solver through batch mode.
func TestSolversAllWork(t *testing.T) {
	names := core.Names()
	if len(names) < 4 {
		t.Fatalf("registry has %d solvers, want at least the 4 built-ins", len(names))
	}
	for _, name := range names {
		sum, err := runPolicy("arrival", testWorld(t, 4, 5, 0.99, name))
		if err != nil {
			t.Fatalf("%v: %v", name, err)
		}
		if sum.admitted == 0 {
			t.Fatalf("%v: nothing admitted", name)
		}
	}
}

func TestILPAtLeastAsGoodAsGreedyPerRequest(t *testing.T) {
	// Same seed, one request: both solvers see identical primaries and
	// residual state, so the exact solver's reliability must be >= greedy's.
	ilp, err := runPolicy("arrival", testWorld(t, 5, 1, 1.0, "ILP"))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := runPolicy("arrival", testWorld(t, 5, 1, 1.0, "Greedy"))
	if err != nil {
		t.Fatal(err)
	}
	if ilp.admitted == 0 || greedy.admitted == 0 {
		t.Skip("request not admitted under this seed")
	}
	if ilp.meanReliability < greedy.meanReliability-1e-9 {
		t.Fatalf("ILP %v worse than greedy %v", ilp.meanReliability, greedy.meanReliability)
	}
}

func TestRejectionRecorded(t *testing.T) {
	w := testWorld(t, 6, 3, 0.99, "Heuristic")
	w.residual = 0 // no capacity at all
	sum, err := runPolicy("arrival", w)
	if err != nil {
		t.Fatalf("a rejected request must not abort the run: %v", err)
	}
	if sum.admitted != 0 || sum.residualLeft != 0 {
		t.Fatalf("admission should fail with zero residual capacity: %+v", sum)
	}
}

func TestUnknownPolicyError(t *testing.T) {
	if _, err := runPolicy("bogus", testWorld(t, 7, 1, 0.99, "Heuristic")); err == nil {
		t.Fatal("unknown policy must error")
	}
}
