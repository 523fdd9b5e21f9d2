// Package experiments reproduces the evaluation of Section 7: the three
// figures (reliability, capacity usage, running time — each swept over SFC
// length, function reliability, and residual capacity) plus two ablations.
// Each experiment runs many independent trials (the paper uses 1,000 per
// point), aggregates with internal/stats, and renders aligned text tables
// and CSV.
package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AllSolvers returns the paper's three algorithms plus the greedy baseline,
// resolved from the core solver registry.
func AllSolvers() []core.Solver { return mustSolvers("ILP", "Randomized", "Heuristic", "Greedy") }

// PaperSolvers returns exactly the paper's three algorithms.
func PaperSolvers() []core.Solver { return mustSolvers("ILP", "Randomized", "Heuristic") }

func mustSolvers(names ...string) []core.Solver {
	out := make([]core.Solver, len(names))
	for i, n := range names {
		s, ok := core.Get(n)
		if !ok {
			panic(fmt.Sprintf("experiments: built-in solver %q not registered", n))
		}
		out[i] = s
	}
	return out
}

// Options configures a sweep run.
type Options struct {
	Trials int   // trials per data point (paper: 1000)
	Seed   int64 // base RNG seed; trials use Seed*1e6 + trial
	// Solvers are the algorithms every point runs, in order (the order
	// matters for reproducibility: solvers share one per-trial rng stream).
	// nil means AllSolvers().
	Solvers []core.Solver
	// Workers bounds the trial executor's parallelism (<=0: GOMAXPROCS).
	// Results are bit-identical for any worker count.
	Workers int
	// Quiet suppresses per-point progress lines on stderr.
	Quiet bool
	// Progress, when non-nil, receives one line per completed point.
	Progress func(string)
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 100
	}
	if len(o.Solvers) == 0 {
		o.Solvers = AllSolvers()
	}
	return o
}

// AlgPoint aggregates one algorithm's trials at one sweep point.
type AlgPoint struct {
	Reliability stats.Summary
	RuntimeMS   stats.Summary
	UsageAvg    stats.Summary // mean per-trial average usage ratio
	UsageMin    stats.Summary
	UsageMax    stats.Summary
	// ViolationRate is the fraction of trials with a capacity violation.
	ViolationRate float64
	// RelVsILP is mean(reliability)/mean(ILP reliability) when ILP ran.
	RelVsILP float64
	// Exact marks an exact solver's row (the ILP, objective variants
	// included). Its UnprovenShare is the fraction of trials whose optimum
	// was not proven: a pack-oracle query ran its budget dry, or a
	// relaxed-tolerance prune fired, so the answer is within a stated
	// tolerance of optimal rather than optimal.
	Exact         bool
	UnprovenShare float64
}

// Point is one x-axis position of a sweep.
type Point struct {
	Label string
	X     float64
	Algs  map[string]AlgPoint
}

// Sweep is a completed experiment: the reproduction of one paper figure.
type Sweep struct {
	Name   string // e.g. "fig1"
	Title  string
	XLabel string
	Points []Point
	Trials int
	Seed   int64
}

// trial is the per-trial raw record.
type trial struct {
	rel, ms, uAvg, uMin, uMax float64
	violated                  bool
	exact, proven             bool // the exact solver answered; it proved optimality
}

// record converts a solver result into the per-trial raw record.
func record(res *core.Result) trial {
	return trial{
		rel:      res.Reliability,
		ms:       float64(res.Runtime) / float64(time.Millisecond),
		uAvg:     res.Usage.Avg,
		uMin:     res.Usage.Min,
		uMax:     res.Usage.Max,
		violated: res.Violated,
		exact:    res.Algorithm == "ILP",
		proven:   res.Proven,
	}
}

// solverNames joins the canonical names for tags and structured logs.
func solverNames(solvers []core.Solver) string {
	names := make([]string, len(solvers))
	for i, s := range solvers {
		names[i] = s.Name()
	}
	return strings.Join(names, ",")
}

// sweepPoint is one x-axis position of a sweep before it has run.
type sweepPoint struct {
	label    string
	x        float64
	cfg      workload.Config
	fixedLen int // > 0 pins the SFC length (Figure 1); otherwise lengths are sampled from cfg
	// seedOff separates the points' trial seeds: trial t of the point is
	// seeded Seed*1_000_003 + seedOff + t (pointIdx*10_007 in the figures).
	seedOff int64
}

// runTrials executes opt.Trials trials of opt.Solvers at every point as one
// trial list on the engine's worker pool — flat index k is trial k%Trials of
// point k/Trials — and returns, per point, the records grouped by solver
// name in trial order. A barrier per point would idle every worker but one
// behind each point's slowest branch-and-bound tree. Each trial samples its
// own world from a seed derived purely from (point, trial), so the output is
// bit-identical for any worker count and any grouping of points into calls.
// All solvers of a trial share the trial's rng stream in slice order,
// matching the historical serial harness.
//
// The engine is fed the flat list backwards, last point's last trial first.
// Every figure's x-axis grows the instance (longer chains, more capacity,
// wider hop bounds), so the trials that take longest start first and the
// short ones fill in behind them, instead of one long trial running alone
// at the end of the sweep. Only the order of execution changes: seeds,
// result slots and grouping still use the flat index, and a failing sweep
// reports the first failing trial in that order.
//
// Instrumentation — the sweep span, the per-point completion log and
// progress line, emitted by whichever worker lands the point's last trial —
// draws nothing from the trial rng, so the recorded trials stay
// bit-identical to an uninstrumented run.
func runTrials(name, xlabel string, points []sweepPoint, opt Options) ([]map[string][]trial, error) {
	sp := obs.Default().StartSpan("experiments_sweep", "fig", name)
	n, solvers := opt.Trials, opt.Solvers
	done := make([]atomic.Int64, len(points)) // trials of the point that have landed
	busy := make([]atomic.Int64, len(points)) // summed trial durations, ns
	var landed sync.Mutex                     // one completion line at a time
	tag := fmt.Sprintf("seed=%d sweep=%s solvers=%s", opt.Seed, name, solverNames(solvers))
	// A failing trial aborts the sweep: a figure averaged over the trials
	// that happened to survive is not the paper's figure.
	total := len(points) * n
	// flat maps an engine (dispatch) position to its flat index, and back.
	flat := func(d int) int { return total - 1 - d }
	perTrial, err := engine.RunTagged(context.Background(), tag, total, opt.Workers,
		func(d int) int64 {
			k := flat(d)
			return opt.Seed*1_000_003 + points[k/n].seedOff + int64(k%n)
		},
		func(d int, rng *rand.Rand) ([]trial, error) {
			k := flat(d)
			p, t := k/n, k%n
			pt := &points[p]
			start := time.Now()
			net := pt.cfg.Network(rng)
			req := pickRequest(pt.cfg, rng, t, pt.fixedLen, net.Catalog().Size())
			workload.PlacePrimariesRandom(net, req, rng)
			inst := core.NewInstance(net, req, core.Params{L: pt.cfg.HopBound})
			recs := make([]trial, len(solvers))
			for i, s := range solvers {
				res, err := s.Solve(inst, rng)
				if err != nil {
					return nil, fmt.Errorf("%s %s, trial %d: %s: %w", xlabel, pt.label, t, s.Name(), err)
				}
				recs[i] = record(res)
			}
			busy[p].Add(int64(time.Since(start)))
			if done[p].Add(1) == int64(n) {
				landed.Lock()
				slog.Debug("experiments: point complete", "tag", tag, "point", pt.label, "trials", n,
					"trial_ms_sum", float64(busy[p].Load())/float64(time.Millisecond))
				progress(opt, "%s: %s %s done", name, xlabel, pt.label)
				landed.Unlock()
			}
			return recs, nil
		})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out := make([]map[string][]trial, len(points))
	for p := range points {
		out[p] = make(map[string][]trial, len(solvers))
		for t := 0; t < n; t++ {
			recs := perTrial[flat(p*n+t)]
			for i, s := range solvers {
				out[p][s.Name()] = append(out[p][s.Name()], recs[i])
			}
		}
	}
	return out, nil
}

// runSweep runs the points of one figure through runTrials and summarizes
// each into the sweep.
func runSweep(s Sweep, points []sweepPoint, opt Options) (*Sweep, error) {
	opt = opt.withDefaults()
	s.Trials, s.Seed = opt.Trials, opt.Seed
	raw, err := runTrials(s.Name, s.XLabel, points, opt)
	if err != nil {
		return nil, err
	}
	for p, pt := range points {
		s.Points = append(s.Points, summarize(pt.label, pt.x, raw[p]))
	}
	return &s, nil
}

func pickRequest(cfg workload.Config, rng *rand.Rand, id, fixedLen, catalogSize int) *mec.Request {
	if fixedLen > 0 {
		return cfg.RequestWithLength(rng, id, fixedLen, catalogSize)
	}
	return cfg.Request(rng, id, catalogSize)
}

// summarize converts raw trials into a Point.
func summarize(label string, x float64, raw map[string][]trial) Point {
	p := Point{Label: label, X: x, Algs: make(map[string]AlgPoint)}
	var ilpMean float64
	if ts, ok := raw["ILP"]; ok && len(ts) > 0 {
		ilpMean = stats.Summarize(column(ts, func(t trial) float64 { return t.rel })).Mean
	}
	for name, ts := range raw {
		if len(ts) == 0 {
			continue
		}
		ap := AlgPoint{
			Reliability: stats.Summarize(column(ts, func(t trial) float64 { return t.rel })),
			RuntimeMS:   stats.Summarize(column(ts, func(t trial) float64 { return t.ms })),
			UsageAvg:    stats.Summarize(column(ts, func(t trial) float64 { return t.uAvg })),
			UsageMin:    stats.Summarize(column(ts, func(t trial) float64 { return t.uMin })),
			UsageMax:    stats.Summarize(column(ts, func(t trial) float64 { return t.uMax })),
		}
		nViol, nUnproven := 0, 0
		for _, t := range ts {
			if t.violated {
				nViol++
			}
			if t.exact {
				ap.Exact = true
				if !t.proven {
					nUnproven++
				}
			}
		}
		ap.ViolationRate = float64(nViol) / float64(len(ts))
		if ap.Exact {
			ap.UnprovenShare = float64(nUnproven) / float64(len(ts))
		}
		if ilpMean > 0 {
			ap.RelVsILP = ap.Reliability.Mean / ilpMean
		}
		p.Algs[name] = ap
	}
	return p
}

func column(ts []trial, f func(trial) float64) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	return xs
}

// algOrder renders algorithms in the paper's order.
var algOrder = []string{"ILP", "Randomized", "Heuristic", "Greedy"}

// sortedAlgs returns the algorithms present in a sweep, paper order first.
func (s *Sweep) sortedAlgs() []string {
	present := make(map[string]bool)
	for _, p := range s.Points {
		for a := range p.Algs {
			present[a] = true
		}
	}
	var out []string
	for _, a := range algOrder {
		if present[a] {
			out = append(out, a)
			delete(present, a)
		}
	}
	var rest []string
	for a := range present {
		rest = append(rest, a)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func progress(opt Options, format string, args ...interface{}) {
	if opt.Progress != nil {
		opt.Progress(fmt.Sprintf(format, args...))
	} else if !opt.Quiet {
		fmt.Printf(format+"\n", args...)
	}
}

// header renders the sweep identity line used by all tables.
func (s *Sweep) header() string {
	return fmt.Sprintf("%s — %s (trials=%d, seed=%d)", strings.ToUpper(s.Name), s.Title, s.Trials, s.Seed)
}

// AppendManifest records the completed sweep into a run manifest: one record
// per (point, algorithm) with the trial count and mean per-trial wall clock.
// Nil manifests are ignored so callers can thread the flag value through
// unconditionally.
func (s *Sweep) AppendManifest(m *obs.Manifest) {
	if m == nil {
		return
	}
	for _, p := range s.Points {
		for _, alg := range s.sortedAlgs() {
			ap, ok := p.Algs[alg]
			if !ok {
				continue
			}
			m.Add(obs.RunRecord{
				Name:    s.Name,
				Label:   p.Label,
				X:       p.X,
				Solver:  alg,
				Seed:    s.Seed,
				Trials:  s.Trials,
				Outcome: "ok",
				MeanMS:  ap.RuntimeMS.Mean,
			})
		}
	}
}
