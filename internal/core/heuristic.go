package core

import (
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
// Every round's graph is built in one workspace that lives for the call —
// the item, edge and bin buffers, a node-indexed bin index, and one
// matching.Matcher — so a round allocates nothing once the first, largest
// graph has been seen.
func SolveHeuristic(inst *Instance, opt HeuristicOptions) (*Result, error) {
	start := time.Now()
	res := &Result{Algorithm: "Heuristic", PerBin: emptyPerBin(inst)}
	if inst.ExpectationMet() || inst.TotalItems() == 0 {
		res.finalize(inst)
		res.Runtime = time.Since(start)
		return res, nil
	}

	residual := append([]float64(nil), inst.Residual...)
	placed := make([]int, len(inst.Positions)) // next item index per position
	rho := inst.Req.Expectation

	// Per-call workspace, truncated each round. binIndex[u] is u's left-node
	// index this round, or -1; only last round's bins are reset.
	type item struct {
		pos int
		k   int // 1-based item index
	}
	var (
		items   []item
		edges   []matching.Edge
		bins    []int
		matcher matching.Matcher
	)
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
		items, edges, bins = items[:0], edges[:0], bins[:0]
		for _, u := range inst.BinSet {
			if residual[u] > 0 {
				binIndex[u] = len(bins)
				bins = append(bins, u)
			}
		}
		for i := range inst.Positions {
			p := &inst.Positions[i]
			window := len(p.Bins)
			if opt.LiteralItems {
				window = p.K
			}
			for k := placed[i] + 1; k <= p.K && k <= placed[i]+window; k++ {
				itemID := len(items)
				items = append(items, item{pos: i, k: k})
				for _, u := range p.Bins {
					bi := binIndex[u]
					if bi < 0 || residual[u] < p.Func.Demand {
						continue
					}
					edges = append(edges, matching.Edge{
						L:    bi,
						R:    itemID,
						Cost: p.Costs[k-1],
					})
				}
			}
		}
		if len(edges) == 0 {
			break
		}

		m := matcher.Solve(len(bins), len(items), edges)
		if m.Cardinality == 0 {
			break
		}
		for bi, it := range m.MatchL {
			if it < 0 {
				continue
			}
			u := bins[bi]
			p := &inst.Positions[items[it].pos]
			residual[u] -= p.Func.Demand
			res.PerBin[items[it].pos][u]++
			placed[items[it].pos]++
		}
		achieved = inst.achieved(placed)
	}

	res.Rounds = round
	res.trimToExpectation(inst)
	res.finalize(inst)
	res.Runtime = time.Since(start)
	return res, nil
}
