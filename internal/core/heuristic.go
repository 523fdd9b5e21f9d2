package core

import (
	"sync"
	"time"

	"repro/internal/matching"
	"repro/internal/reliability"
)

// HeuristicOptions tunes Algorithm 2.
type HeuristicOptions struct {
	// LiteralItems builds each round's bipartite graph over every remaining
	// item, exactly as Algorithm 2 states. The default instead includes only
	// the next |bins| items per position — lossless, because a round matches
	// each bin at most once, so at most |bins| items of one position can be
	// chosen, and the matching always prefers the cheaper lower-k items
	// (Lemma 6.1) — but literal mode exists to *test* that claim
	// (TestHeuristicWindowLossless) and for readers following the paper
	// line by line.
	LiteralItems bool
}

// matcherPool holds Algorithm 2's matching workspaces between calls. A
// Matcher returns exactly what a fresh one does (matching's reuse contract),
// so which one a call gets changes no answer.
var matcherPool = sync.Pool{New: func() any { return new(matching.Matcher) }}

// SolveHeuristic implements Algorithm 2: repeatedly build the bipartite
// graph G_l between cloudlets with residual capacity and the remaining
// candidate secondary items, find a minimum-cost maximum matching with the
// Hungarian algorithm, commit it, and continue until the reliability
// expectation is reached or no feasible edge remains. Each round a cloudlet
// hosts at most one new instance (the matching's degree constraint), which
// is exactly what drives the paper's iteration count analysis.
//
// Termination note (deviation documented in DESIGN.md): the paper's loop
// guard compares the accumulated item cost Σc against the budget C = -log ρ.
// Taken literally that guard stops after the first item for any realistic ρ
// (a single item's cost already exceeds -log 0.99); the evident intent —
// "augment until the expectation is reached" — is implemented instead by
// stopping once the achieved chain reliability reaches ρ, then trimming
// overshoot from the final round.
//
// Each round's graph is built as groups, one per chain position: the
// position's window of items shares one adjacency (its usable bins) and has
// non-decreasing costs (Lemma 6.1), which is exactly matching.Group, so the
// round builds neither an edge list nor a dense matrix, and the matching
// scans each position's cheapest unmatched item instead of its whole window.
// The groups, their rows, a node-indexed bin index and the per-position
// reliability factors live for the call, so a round allocates nothing once
// the first, largest graph has been seen. The matching.Matcher comes from
// matcherPool and goes back when the call returns, so a served request's
// solve starts with buffers an earlier solve grew; nothing the call returns
// refers to them.
func SolveHeuristic(inst *Instance, opt HeuristicOptions) (*Result, error) {
	start := time.Now()
	res := newResult("Heuristic", inst)
	if inst.ExpectationMet() || inst.TotalItems() == 0 {
		res.finalize(inst)
		res.Runtime = time.Since(start)
		return res, nil
	}

	residual := append([]float64(nil), inst.Residual...)
	placed := res.Counts // next item index per position
	rho := inst.Req.Expectation

	// Per-call workspace, truncated each round. binIndex[u] is u's left-node
	// index this round, or -1; only last round's bins are reset. rows backs
	// every group's Rows and never outgrows Σ|Bins|; rowBin[k] is the index of
	// rows[k]'s bin in its position's Bins. factors[i] is
	// Accumulated(r_i, placed[i]); their product in position order is
	// inst.achieved(placed), bit for bit.
	nRows := 0
	factors := make([]float64, len(inst.Positions))
	for i, p := range inst.Positions {
		nRows += len(p.Bins)
		factors[i] = p.accumulated(0)
	}
	var (
		groups = make([]matching.Group, len(inst.Positions))
		rows   = make([]int, 0, nRows)
		rowBin = make([]int, 0, nRows)
		bins   []int
	)
	matcher := matcherPool.Get().(*matching.Matcher)
	defer matcherPool.Put(matcher)
	binIndex := make([]int, len(inst.Residual))
	for u := range binIndex {
		binIndex[u] = -1
	}

	achieved := inst.InitialReliability
	round := 0
	// The loop terminates: every round either breaks or matches at least one
	// of the finitely many items (Σ K_i), and a matched item is never offered
	// again.
	for {
		round++
		if reliability.MeetsExpectation(achieved, rho) {
			break
		}

		// Build G_l: left = bins (cloudlets with any residual), right =
		// candidate items. Per position only the next |bins| items can
		// possibly match this round (each bin takes at most one), so later
		// items are left out of the graph without changing the matching.
		for _, u := range bins {
			binIndex[u] = -1
		}
		bins, rows, rowBin = bins[:0], rows[:0], rowBin[:0]
		for _, u := range inst.BinSet {
			if residual[u] > 0 {
				binIndex[u] = len(bins)
				bins = append(bins, u)
			}
		}
		edges := 0
		for i := range inst.Positions {
			p := &inst.Positions[i]
			window := len(p.Bins)
			if opt.LiteralItems {
				window = p.K
			}
			items := p.Costs[placed[i]:min(p.K, placed[i]+window)]
			first := len(rows)
			if len(items) > 0 {
				for b, u := range p.Bins {
					if bi := binIndex[u]; bi >= 0 && residual[u] >= p.Func.Demand {
						rows = append(rows, bi)
						rowBin = append(rowBin, b)
					}
				}
			}
			groups[i] = matching.Group{Rows: rows[first:], Costs: items}
			edges += (len(rows) - first) * len(items)
		}
		if edges == 0 {
			break
		}

		m := matcher.SolveGroups(len(bins), groups)
		if m.Cardinality == 0 {
			break
		}
		// A position's matched items are the rows its group shares whose bin
		// took one of its items: each bin takes at most one item a round.
		it, first := 0, 0 // right node of position i's first item; its first row
		for i, g := range groups {
			n := placed[i]
			for k, bi := range g.Rows {
				if r := m.MatchL[bi]; r < it || r >= it+len(g.Costs) {
					continue
				}
				residual[bins[bi]] -= inst.Positions[i].Func.Demand
				res.PerBin[i][rowBin[first+k]]++
				placed[i]++
			}
			if placed[i] != n {
				factors[i] = inst.Positions[i].accumulated(placed[i])
			}
			it += len(g.Costs)
			first += len(g.Rows)
		}
		achieved = product(factors)
	}

	res.Rounds = round
	res.trimToExpectation(inst)
	res.finalize(inst)
	res.Runtime = time.Since(start)
	return res, nil
}
