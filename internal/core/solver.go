package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Solver is the uniform interface over the augmentation algorithms. A Solver
// is a named, option-bound strategy: Solve runs it on one instance. The rng
// feeds any internal randomness (only the randomized rounding uses it;
// deterministic solvers ignore it) — callers that want reproducible runs pass
// a per-trial seeded rng and solvers must not retain it across calls.
//
// Solver implementations must be safe for concurrent Solve calls on distinct
// instances: the trial engine (internal/engine) fans one Solver out across
// GOMAXPROCS workers.
type Solver interface {
	Name() string
	Solve(inst *Instance, rng *rand.Rand) (*Result, error)
}

// solverFunc adapts a plain function to the Solver interface.
type solverFunc struct {
	name string
	fn   func(*Instance, *rand.Rand) (*Result, error)
}

func (s solverFunc) Name() string { return s.name }

// Solve runs the wrapped function and records per-solver observability
// metrics (duration, LP pivots, branch-and-bound nodes, objective, outcome)
// into the default obs registry. The recording never touches rng or the
// instance, so instrumented runs stay bit-identical to uninstrumented ones.
func (s solverFunc) Solve(inst *Instance, rng *rand.Rand) (*Result, error) {
	ins := instrumentsFor(s.name)
	start := time.Now()
	res, err := s.fn(inst, rng)
	ins.duration.ObserveSince(start)
	ins.total.Inc()
	if err != nil {
		ins.errors.Inc()
		return res, err
	}
	if res.LPIterations > 0 {
		ins.pivots.Observe(float64(res.LPIterations))
	}
	if res.Nodes > 0 {
		ins.nodes.Observe(float64(res.Nodes))
	}
	if res.Proven {
		ins.proven.Inc()
	}
	ins.objective.Set(res.Objective)
	return res, err
}

// solveInstruments caches the obs metric handles for one solver name so the
// per-solve cost is a handful of atomic operations, not registry lookups.
type solveInstruments struct {
	total, errors, proven *obs.Counter
	duration              *obs.Histogram
	pivots                *obs.Histogram
	nodes                 *obs.Histogram
	objective             *obs.Gauge
}

var instrumentCache sync.Map // solver name → *solveInstruments

func instrumentsFor(name string) *solveInstruments {
	if v, ok := instrumentCache.Load(name); ok {
		return v.(*solveInstruments)
	}
	r := obs.Default()
	ins := &solveInstruments{
		total:     r.Counter("solver_solve_total", "solver", name),
		errors:    r.Counter("solver_solve_errors_total", "solver", name),
		proven:    r.Counter("solver_proven_total", "solver", name),
		duration:  r.Histogram("solver_duration_seconds", obs.DurationBuckets, "solver", name),
		pivots:    r.Histogram("solver_lp_pivots", obs.CountBuckets, "solver", name),
		nodes:     r.Histogram("solver_ilp_nodes", obs.CountBuckets, "solver", name),
		objective: r.Gauge("solver_last_objective", "solver", name),
	}
	actual, _ := instrumentCache.LoadOrStore(name, ins)
	return actual.(*solveInstruments)
}

// NewSolverFunc wraps fn as a Solver with the given name. Use it for ad-hoc
// variants (e.g. an ILP with a non-default objective) that should flow
// through the same harness as the registered algorithms.
func NewSolverFunc(name string, fn func(*Instance, *rand.Rand) (*Result, error)) Solver {
	if name == "" {
		panic("core: solver name must be non-empty")
	}
	if fn == nil {
		panic("core: solver fn must be non-nil")
	}
	return solverFunc{name: name, fn: fn}
}

// NewILPSolver returns the exact solver (Section 4) bound to opt.
func NewILPSolver(opt ILPOptions) Solver {
	return solverFunc{name: "ILP", fn: func(inst *Instance, _ *rand.Rand) (*Result, error) {
		return SolveILP(inst, opt)
	}}
}

// NewRandomizedSolver returns Algorithm 1 (LP relaxation + randomized
// rounding) bound to opt. Its Solve requires a non-nil rng.
func NewRandomizedSolver(opt RandomizedOptions) Solver {
	return solverFunc{name: "Randomized", fn: func(inst *Instance, rng *rand.Rand) (*Result, error) {
		if rng == nil {
			return nil, fmt.Errorf("core: the Randomized solver requires a non-nil rng")
		}
		return SolveRandomized(inst, rng, opt)
	}}
}

// NewHeuristicSolver returns Algorithm 2 (iterated min-cost matching) bound
// to opt.
func NewHeuristicSolver(opt HeuristicOptions) Solver {
	return solverFunc{name: "Heuristic", fn: func(inst *Instance, _ *rand.Rand) (*Result, error) {
		return SolveHeuristic(inst, opt)
	}}
}

// NewGreedySolver returns the marginal-gain baseline.
func NewGreedySolver() Solver {
	return solverFunc{name: "Greedy", fn: func(inst *Instance, _ *rand.Rand) (*Result, error) {
		return SolveGreedy(inst)
	}}
}

// registry holds the named solvers. Lookup is case-insensitive; Names
// preserves registration order so listings read in the paper's order
// (ILP, Randomized, Heuristic, then extensions).
var registry = struct {
	sync.RWMutex
	byName map[string]Solver // key: lower-cased name
	order  []string          // canonical names, registration order
}{byName: make(map[string]Solver)}

// Register adds s to the solver registry under its name. Registering a name
// again replaces the previous entry (last registration wins, keeping its
// position), which lets callers rebind a default algorithm to tuned options.
func Register(s Solver) {
	if s == nil || s.Name() == "" {
		panic("core: Register requires a solver with a non-empty name")
	}
	key := strings.ToLower(s.Name())
	registry.Lock()
	defer registry.Unlock()
	if _, exists := registry.byName[key]; !exists {
		registry.order = append(registry.order, s.Name())
	}
	registry.byName[key] = s
}

// Get returns the registered solver with the given name (case-insensitive).
func Get(name string) (Solver, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.byName[strings.ToLower(name)]
	return s, ok
}

// Names returns the canonical names of all registered solvers in
// registration order (the built-ins come first, in the paper's order).
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// ResolveSolvers resolves a comma-separated list of solver names against the
// registry. The single token "all" selects every registered solver. Unknown
// names error with a listing of the registered ones.
func ResolveSolvers(spec string) ([]Solver, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		var out []Solver
		for _, name := range Names() {
			s, _ := Get(name)
			out = append(out, s)
		}
		return out, nil
	}
	var out []Solver
	seen := make(map[string]bool)
	for _, tok := range strings.Split(spec, ",") {
		name := strings.TrimSpace(tok)
		if name == "" {
			continue
		}
		s, ok := Get(name)
		if !ok {
			known := Names()
			sort.Strings(known)
			return nil, fmt.Errorf("core: unknown solver %q (registered: %s)", name, strings.Join(known, ", "))
		}
		if seen[strings.ToLower(s.Name())] {
			continue
		}
		seen[strings.ToLower(s.Name())] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: empty solver list %q", spec)
	}
	return out, nil
}

func init() {
	// The registered ILP is bounded by its node budget and, only when the
	// caller sets one, the instance's Deadline: every consumer that sets none
	// — the experiment harness, batch mode, the CLIs — computes results that
	// are pure functions of the instance, which is what makes parallel sweeps
	// bit-identical to serial ones.
	Register(NewILPSolver(ILPOptions{}))
	Register(NewRandomizedSolver(RandomizedOptions{}))
	Register(NewHeuristicSolver(HeuristicOptions{}))
	Register(NewGreedySolver())
	// Failsafe is the deterministic graceful-degradation chain: the
	// heuristic serves unless it fails, in which case the greedy baseline
	// does. No stage carries a budget, so the registry's
	// purity/reproducibility contract above still holds for it.
	Register(Fallback("Failsafe",
		Stage(NewHeuristicSolver(HeuristicOptions{}), 0),
		Stage(NewGreedySolver(), 0)))
}
