package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/obs"
)

// ErrFallbackExhausted is wrapped by a Fallback solver's error when every
// stage of the chain failed (error, nil, or capacity-violating result).
// Callers that degrade gracefully — the DES records such a request as
// blocked instead of aborting — match it with errors.Is.
var ErrFallbackExhausted = errors.New("core: fallback chain exhausted")

// ErrDeadline is wrapped by the error of a solve that ran out of time: a
// Fallback chain returns it, instead of starting its next stage, when a
// stage fails after the caller's Instance.Deadline has passed. The serving
// layer answers it 504 rather than 422.
var ErrDeadline = errors.New("core: solve deadline exceeded")

// FallbackStage pairs a solver with a wall-clock budget inside a chain.
type FallbackStage struct {
	Solver Solver
	// Budget bounds the stage's wall clock (<= 0: unbounded). The stage
	// solves a copy of the instance whose Deadline is the earlier of the
	// caller's and the stage start plus Budget, so it bounds only a solver
	// that honours Instance.Deadline — the ILP, which returns its best
	// incumbent by then.
	Budget time.Duration
}

// Stage is shorthand for constructing a FallbackStage.
func Stage(s Solver, budget time.Duration) FallbackStage {
	return FallbackStage{Solver: s, Budget: budget}
}

// fallbackInstruments caches the per-(chain, stage) obs handles.
type fallbackInstruments struct {
	activations *obs.Counter // stage attempts
	served      *obs.Counter // stage produced the chain's result
	timeouts    *obs.Counter // stage returned at or after its stage deadline
	errors      *obs.Counter // stage errors (incl. infeasible results)
}

func fallbackInstrumentsFor(chain, stage string) *fallbackInstruments {
	r := obs.Default()
	return &fallbackInstruments{
		activations: r.Counter("fallback_activations_total", "chain", chain, "stage", stage),
		served:      r.Counter("fallback_served_total", "chain", chain, "stage", stage),
		timeouts:    r.Counter("fallback_stage_timeouts_total", "chain", chain, "stage", stage),
		errors:      r.Counter("fallback_stage_errors_total", "chain", chain, "stage", stage),
	}
}

// Fallback builds a registry-compatible Solver that tries each stage in
// order and returns the first feasible result (err == nil and no capacity
// violation), whenever it returns, tagged in Result.ServedBy with the stage
// that produced it. A typical chain is
//
//	core.Fallback("des", core.Stage(ilp, 50*time.Millisecond),
//	    core.Stage(heuristic, 0), core.Stage(greedy, 0))
//
// so a pathological instance degrades the exact answer instead of stalling
// the caller. Every stage runs to completion on the caller's goroutine; the
// chain bounds time only through Instance.Deadline (see FallbackStage), and
// once the caller's own deadline has passed a failing stage ends the chain
// with ErrDeadline. Per-stage activations, serves, timeouts, and errors are
// exposed as fallback_*_total{chain,stage} counters.
//
// Determinism: the chain draws one seed per stage from the caller's rng up
// front — regardless of how many stages actually run — so the caller's rng
// stream advances by exactly len(stages) draws per Solve. Chains whose stages
// are deterministic and unbudgeted (e.g. Heuristic → Greedy) and that run
// without an instance deadline are themselves deterministic; a deadline or a
// budget trades that for a latency guarantee.
func Fallback(name string, stages ...FallbackStage) Solver {
	if name == "" {
		panic("core: Fallback requires a non-empty chain name")
	}
	if len(stages) == 0 {
		panic("core: Fallback requires at least one stage")
	}
	ins := make([]*fallbackInstruments, len(stages))
	for i, st := range stages {
		if st.Solver == nil {
			panic(fmt.Sprintf("core: Fallback %q stage %d has a nil solver", name, i))
		}
		ins[i] = fallbackInstrumentsFor(name, st.Solver.Name())
	}
	return NewSolverFunc(name, func(inst *Instance, rng *rand.Rand) (*Result, error) {
		// One seed per stage, drawn before any stage runs (see doc comment).
		seeds := make([]int64, len(stages))
		if rng != nil {
			for i := range seeds {
				seeds[i] = rng.Int63()
			}
		}
		var fails []string
		for i, st := range stages {
			ins[i].activations.Inc()
			var stageRng *rand.Rand
			if rng != nil {
				stageRng = rand.New(CheapSource(seeds[i]))
			}
			stageInst, deadline := inst, inst.Deadline
			if st.Budget > 0 {
				if d := time.Now().Add(st.Budget); deadline.IsZero() || d.Before(deadline) {
					cp := *inst
					cp.Deadline = d
					stageInst, deadline = &cp, d
				}
			}
			res, err := st.Solver.Solve(stageInst, stageRng)
			var now time.Time
			if !deadline.IsZero() {
				if now = time.Now(); !now.Before(deadline) {
					ins[i].timeouts.Inc()
				}
			}
			switch {
			case err != nil:
				fails = append(fails, fmt.Sprintf("%s: %v", st.Solver.Name(), err))
			case res == nil:
				fails = append(fails, st.Solver.Name()+": nil result")
			case res.Violated:
				// A capacity-violating solution (possible for Randomized)
				// cannot be committed, so for a serving chain it is a
				// failure: fall through to the next stage.
				fails = append(fails, st.Solver.Name()+": capacity-violating result")
			default:
				ins[i].served.Inc()
				res.ServedBy = st.Solver.Name()
				return res, nil
			}
			ins[i].errors.Inc()
			// A set caller deadline implies a set stage deadline, so now is
			// the stage's return time here.
			if !inst.Deadline.IsZero() && !now.Before(inst.Deadline) {
				return nil, fmt.Errorf("%w: %s: %s", ErrDeadline, name, strings.Join(fails, "; "))
			}
		}
		return nil, fmt.Errorf("%w: %s: %s", ErrFallbackExhausted, name, strings.Join(fails, "; "))
	})
}

// budgetedSolver is the one registered solver a fallback spec may budget:
// the only one that searches, and so the only one with a better-so-far
// answer to return when its deadline arrives.
const budgetedSolver = "ILP"

// ParseFallback builds a Fallback chain from a spec like
// "ILP@50ms,Heuristic,Greedy": comma-separated registered solver names.
// The ILP may carry an @duration budget (its stage deadline, at which it
// returns its best incumbent); any other solver with one is an error, since
// a budget could only be enforced on it by abandoning it.
func ParseFallback(name, spec string) (Solver, error) {
	var stages []FallbackStage
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		solverName, budgetText, budgeted := strings.Cut(tok, "@")
		s, ok := Get(strings.TrimSpace(solverName))
		if !ok {
			return nil, fmt.Errorf("core: fallback stage %q: unknown solver (registered: %s)",
				tok, strings.Join(Names(), ", "))
		}
		var budget time.Duration
		if budgeted {
			if !strings.EqualFold(s.Name(), budgetedSolver) {
				return nil, fmt.Errorf("core: fallback stage %q: only %s takes a budget — %s does not search, so it has no incumbent to return early",
					tok, budgetedSolver, s.Name())
			}
			d, err := time.ParseDuration(strings.TrimSpace(budgetText))
			if err != nil {
				return nil, fmt.Errorf("core: fallback stage %q: bad budget: %w", tok, err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("core: fallback stage %q: budget must be positive", tok)
			}
			budget = d
		}
		stages = append(stages, Stage(s, budget))
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: empty fallback spec %q", spec)
	}
	return Fallback(name, stages...), nil
}
