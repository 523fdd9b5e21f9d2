package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// failingSolver always errors — the pathological first stage of a chain.
func failingSolver(name string) Solver {
	return NewSolverFunc(name, func(*Instance, *rand.Rand) (*Result, error) {
		return nil, fmt.Errorf("%s: induced failure", name)
	})
}

// stallingSolver would take d to answer, but honours Instance.Deadline: when
// the deadline comes first it gives up then with ErrDeadline — the stage a
// budget is for.
func stallingSolver(name string, d time.Duration) Solver {
	return NewSolverFunc(name, func(inst *Instance, _ *rand.Rand) (*Result, error) {
		finish := time.Now().Add(d)
		if !inst.Deadline.IsZero() && inst.Deadline.Before(finish) {
			time.Sleep(time.Until(inst.Deadline))
			return nil, fmt.Errorf("%s: %w", name, ErrDeadline)
		}
		time.Sleep(time.Until(finish))
		return SolveGreedy(inst)
	})
}

func TestFallbackFirstStageServes(t *testing.T) {
	inst := solverTestInstance(t, 11, 4)
	chain := Fallback("t-first", Stage(NewHeuristicSolver(HeuristicOptions{}), 0), Stage(NewGreedySolver(), 0))
	res, err := chain.Solve(inst, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "Heuristic" {
		t.Fatalf("ServedBy = %q, want Heuristic", res.ServedBy)
	}
	direct, err := SolveHeuristic(inst, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability != direct.Reliability {
		t.Fatalf("chain result diverges from the direct solve: %v vs %v", res.Reliability, direct.Reliability)
	}
}

func TestFallbackFallsThroughOnError(t *testing.T) {
	inst := solverTestInstance(t, 12, 4)
	chain := Fallback("t-error",
		Stage(failingSolver("Broken"), 0),
		Stage(NewHeuristicSolver(HeuristicOptions{}), 0))
	res, err := chain.Solve(inst, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "Heuristic" {
		t.Fatalf("ServedBy = %q, want the second stage", res.ServedBy)
	}
}

// TestFallbackBudgetTimeout: a stage budget reaches the stage as its
// instance deadline, so a stage that would stall for seconds gives up at the
// budget by itself, counts one stage timeout, and the chain falls through —
// with no goroutine started or left behind.
func TestFallbackBudgetTimeout(t *testing.T) {
	inst := solverTestInstance(t, 13, 4)
	chain := Fallback("t-budget",
		Stage(stallingSolver("Stall", 5*time.Second), 20*time.Millisecond),
		Stage(NewGreedySolver(), 0))
	timeouts := obs.Default().Counter("fallback_stage_timeouts_total", "chain", "t-budget", "stage", "Stall")
	before, goroutines := timeouts.Value(), runtime.NumGoroutine()
	start := time.Now()
	res, err := chain.Solve(inst, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget did not cut the stalling stage off (took %v)", elapsed)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after the chain returned, %d before", n, goroutines)
	}
	if res.ServedBy != "Greedy" {
		t.Fatalf("ServedBy = %q, want Greedy after the timeout", res.ServedBy)
	}
	if got := timeouts.Value() - before; got != 1 {
		t.Fatalf("fallback_stage_timeouts_total{stage=Stall} rose by %d, want 1", got)
	}
	if !inst.Deadline.IsZero() {
		t.Fatal("the stage budget leaked into the caller's instance")
	}
}

// TestFallbackCallerDeadlineEndsChain: once the caller's own deadline has
// passed, a failing stage ends the chain with ErrDeadline instead of starting
// the next stage.
func TestFallbackCallerDeadlineEndsChain(t *testing.T) {
	inst := solverTestInstance(t, 13, 4)
	calls := 0
	chain := Fallback("t-caller-deadline",
		Stage(stallingSolver("Stall", 5*time.Second), 0),
		Stage(NewSolverFunc("Counting", func(inst *Instance, _ *rand.Rand) (*Result, error) {
			calls++
			return SolveGreedy(inst)
		}), 0))
	inst.Deadline = time.Now().Add(10 * time.Millisecond)
	res, err := chain.Solve(inst, rand.New(rand.NewSource(1)))
	if res != nil || !errors.Is(err, ErrDeadline) {
		t.Fatalf("want an ErrDeadline error, got (%v, %v)", res, err)
	}
	if calls != 0 {
		t.Fatalf("the chain started its next stage %d times after the caller's deadline", calls)
	}
}

// TestFallbackBudgetDegradesILP budgets the ILP of "ILP@b,Heuristic,Greedy"
// at a tenth of its unbudgeted solve on the hardest golden count tree. The
// ILP stops at its stage deadline by itself — no goroutine is started or left
// behind — and serves its incumbent: unproven, but no worse than the
// Heuristic it was seeded with.
func TestFallbackBudgetDegradesILP(t *testing.T) {
	names, insts := hardFig1Instances()
	inst := insts[0]
	ilp, _ := Get("ILP")
	full, err := ilp.Solve(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Runtime / 10
	chain, err := ParseFallback("t-ilp-budget", "ILP@"+budget.String()+",Heuristic,Greedy")
	if err != nil {
		t.Fatal(err)
	}
	heuristic, err := SolveHeuristic(inst, HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	start := time.Now()
	res, err := chain.Solve(inst, rand.New(rand.NewSource(1)))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after the chain returned, %d before", n, goroutines)
	}
	if elapsed > budget+50*time.Millisecond {
		t.Fatalf("%s: ILP@%v returned after %v (unbudgeted solve %v)", names[0], budget, elapsed, full.Runtime)
	}
	if res.ServedBy != "ILP" || res.Proven {
		t.Fatalf("%s: served by %q (proven %v), want the ILP's unproven incumbent", names[0], res.ServedBy, res.Proven)
	}
	if res.Reliability < heuristic.Reliability {
		t.Fatalf("%s: budgeted ILP reliability %v below the Heuristic's %v", names[0], res.Reliability, heuristic.Reliability)
	}
}

// TestILPPastDeadlineServesHeuristicFloor solves a hard Fig. 1 instance with
// several multi-position components under a deadline that has already
// passed. No component's search reaches its root, so each is seeded with the
// Heuristic afterwards: the ILP still answers, unproven, and no worse than
// the Heuristic.
func TestILPPastDeadlineServesHeuristicFloor(t *testing.T) {
	names, insts := hardFig1Instances()
	k := slices.IndexFunc(insts, func(inst *Instance) bool {
		multi := 0
		for _, group := range splitComponents(inst) {
			if len(group) > 1 {
				multi++
			}
		}
		return multi > 1
	})
	if k < 0 {
		t.Fatal("no hard Fig. 1 instance has two multi-position components")
	}
	inst := *insts[k]
	inst.Deadline = time.Now().Add(-time.Second)
	res, err := SolveILP(&inst, ILPOptions{})
	if err != nil {
		t.Fatalf("%s: %v", names[k], err)
	}
	heuristic, err := SolveHeuristic(insts[k], HeuristicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven || res.Nodes != 0 {
		t.Fatalf("%s: proven %v after %d nodes, want an unproven answer from no search", names[k], res.Proven, res.Nodes)
	}
	if res.Reliability < heuristic.Reliability {
		t.Fatalf("%s: past-deadline ILP reliability %v below the Heuristic's %v", names[k], res.Reliability, heuristic.Reliability)
	}
}

func TestFallbackExhausted(t *testing.T) {
	inst := solverTestInstance(t, 14, 4)
	chain := Fallback("t-exhausted", Stage(failingSolver("A"), 0), Stage(failingSolver("B"), 0))
	res, err := chain.Solve(inst, rand.New(rand.NewSource(1)))
	if res != nil || err == nil {
		t.Fatalf("want exhaustion error, got (%v, %v)", res, err)
	}
	if !errors.Is(err, ErrFallbackExhausted) {
		t.Fatalf("error should wrap ErrFallbackExhausted: %v", err)
	}
}

func TestFallbackViolatedResultFallsThrough(t *testing.T) {
	inst := solverTestInstance(t, 15, 4)
	violating := NewSolverFunc("Violating", func(inst *Instance, _ *rand.Rand) (*Result, error) {
		res, err := SolveGreedy(inst)
		if err != nil {
			return nil, err
		}
		res.Violated = true
		return res, nil
	})
	chain := Fallback("t-violated", Stage(violating, 0), Stage(NewHeuristicSolver(HeuristicOptions{}), 0))
	res, err := chain.Solve(inst, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "Heuristic" {
		t.Fatalf("ServedBy = %q; a violating result must not serve", res.ServedBy)
	}
}

// TestFallbackRngStreamFixedWidth pins the determinism contract: a Solve
// consumes exactly len(stages) draws from the caller's rng no matter which
// stage serves, so downstream draws stay aligned across degradation paths.
func TestFallbackRngStreamFixedWidth(t *testing.T) {
	inst := solverTestInstance(t, 16, 3)
	serveFirst := Fallback("t-width-a", Stage(NewHeuristicSolver(HeuristicOptions{}), 0), Stage(NewGreedySolver(), 0))
	serveSecond := Fallback("t-width-b", Stage(failingSolver("Broken"), 0), Stage(NewGreedySolver(), 0))
	next := func(chain Solver) int64 {
		rng := rand.New(rand.NewSource(77))
		if _, err := chain.Solve(inst, rng); err != nil {
			t.Fatal(err)
		}
		return rng.Int63()
	}
	if a, b := next(serveFirst), next(serveSecond); a != b {
		t.Fatalf("caller rng stream diverged across chain paths: %d vs %d", a, b)
	}
}

func TestFallbackRegistryFailsafe(t *testing.T) {
	s, ok := Get("failsafe")
	if !ok {
		t.Fatal("Failsafe chain not registered")
	}
	inst := solverTestInstance(t, 17, 4)
	res, err := s.Solve(inst, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy == "" {
		t.Fatal("registry Failsafe result not stage-tagged")
	}
}

func TestParseFallback(t *testing.T) {
	chain, err := ParseFallback("t-parse", "ILP@50ms, Heuristic ,Greedy")
	if err != nil {
		t.Fatal(err)
	}
	inst := solverTestInstance(t, 18, 3)
	res, err := chain.Solve(inst, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy == "" {
		t.Fatal("parsed chain result not stage-tagged")
	}
	// Only the ILP searches, so only the ILP takes a budget.
	for _, bad := range []string{"", "NoSuchSolver", "ILP@banana", "ILP@-3s", "Heuristic@5ms", "Greedy@1s", "NoSuchSolver@5ms"} {
		if _, err := ParseFallback("t-parse-bad", bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
}

// FuzzFallbackChain drives a chain over fuzz-chosen workloads and shapes,
// asserting the chain's contract: it either errors (wrapping
// ErrFallbackExhausted when every stage failed) or returns a feasible,
// stage-tagged result whose reliability is a valid probability. Every chain
// opens with a budgeted stage that would stall for a second but honours its
// stage deadline, so the budget path runs on every input. The seed corpus is
// pinned under testdata/fuzz/FuzzFallbackChain.
func FuzzFallbackChain(f *testing.F) {
	f.Add(int64(1), int64(3), int64(990), false)
	f.Add(int64(42), int64(6), int64(999), true)
	f.Add(int64(7), int64(1), int64(500), true)
	f.Add(int64(1234), int64(8), int64(1000), false)
	f.Fuzz(func(t *testing.T, seed, sfcLen, rhoMilli int64, failFirst bool) {
		if sfcLen < 1 {
			sfcLen = 1
		}
		if sfcLen > 10 {
			sfcLen = sfcLen%10 + 1
		}
		rho := float64((rhoMilli%1000+1000)%1000+1) / 1000.0
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.NewDefaultConfig()
		cfg.Expectation = rho
		net := cfg.Network(rng)
		req := cfg.RequestWithLength(rng, 0, int(sfcLen), net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: cfg.HopBound})

		stages := []FallbackStage{
			Stage(NewHeuristicSolver(HeuristicOptions{}), 0),
			Stage(NewGreedySolver(), 0),
		}
		if failFirst {
			stages = append([]FallbackStage{Stage(failingSolver("Broken"), 0)}, stages...)
		}
		stages = append([]FallbackStage{Stage(stallingSolver("Stall", time.Second), 200*time.Microsecond)}, stages...)
		chain := Fallback("fuzz", stages...)
		res, err := chain.Solve(inst, rng)
		if err != nil {
			if !errors.Is(err, ErrFallbackExhausted) {
				t.Fatalf("chain error does not wrap ErrFallbackExhausted: %v", err)
			}
			return
		}
		if res == nil {
			t.Fatal("nil result without error")
		}
		if res.ServedBy == "" || res.ServedBy == "Stall" {
			t.Fatalf("result tagged %q, want a stage after the stalled one", res.ServedBy)
		}
		if res.Violated {
			t.Fatal("chain served a capacity-violating result")
		}
		if res.Reliability < 0 || res.Reliability > 1+1e-9 {
			t.Fatalf("reliability %v out of [0,1]", res.Reliability)
		}
	})
}
