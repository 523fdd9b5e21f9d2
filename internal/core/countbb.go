package core

import (
	"math"
	"time"
)

// countBB is a branch-and-bound specialized to the augmentation ILP's
// structure. The generic 0/1 branch-and-bound in internal/ilp stalls on this
// problem: the objective depends only on the per-function backup *counts*
// n_i = Σ_u y_{i,u}, so LP bounds are flat across branches that merely move
// instances between bins, and best-bound search degenerates into enumerating
// an exponentially large optimal face.
//
// countBB instead branches on the aggregate counts, where bounds genuinely
// move (forcing a count down surrenders that item's gain; forcing it up
// consumes capacity other functions needed):
//
//   - Each node is a box [lo_i, hi_i] over counts, bounded by an LP with the
//     box rows added.
//   - When the LP's counts are fractional, branch floor/ceil on the most
//     fractional count.
//   - When they are integral (value ñ), the node's LP bound equals the true
//     objective of ñ; an exact bin-packing oracle decides whether ñ is
//     integrally packable. Packable: the node is solved exactly (ñ is its
//     best integral point). Unpackable: integral points ≥ ñ are not even
//     fractionally packable (all item rewards are positive, so the LP would
//     have preferred them), hence the children {hi_i = ñ_i − 1} cover every
//     remaining candidate.
//   - If the packing oracle exceeds its search budget (rare, needs
//     adversarial demand patterns), the vector is excluded as if unpackable —
//     still sound for every other candidate — and the result is reported as
//     not proven optimal.
//
// Node relaxations are solved combinatorially by flowRelax (a polymatroid
// greedy over a tiny bipartite flow network) rather than by the simplex,
// which makes a node cost microseconds; TestFlowRelaxMatchesSimplexLP pins
// the equivalence of the two relaxations.
type countBB struct {
	inst      *Instance
	obj       Objective
	fr        *flowRelax // node-relaxation solver (see flowrelax.go)
	tol       float64    // absolute bound tolerance in objective (log) space
	nodes     int
	max       int
	deadline  time.Time // the instance's Deadline; zero means node budget only
	timedOut  bool
	nFallback int
	nPackFail int

	// packMemo caches every packing-oracle outcome by count vector (the
	// cover-children recursion and the fractional-node incumbent probes
	// revisit count vectors; witnesses and exhaustive refutations are
	// budget-independent, so both replay for free).
	packMemo map[string]packOutcome
	key      []byte // packMemo lookup key scratch
	// pack is the packing oracle's workspace and failure table, reused
	// across every query this search issues.
	pack *packer

	incumbent    []map[int]int
	incumbentVal float64
	haveInc      bool
	proven       bool
}

// countTol is the base bound-pruning tolerance: 1e-9 in log-reliability
// space is a relative reliability error below 1e-9, far under the figures'
// precision.
const countTol = 1e-9

// tolSchedule relaxes the pruning tolerance as the tree grows, bounding the
// worst-case cost of pathological components: a prune at tolerance τ means
// the returned reliability is within a factor e^τ of the optimum (τ = 1e-3
// is a 0.1% relative error, far below the evaluation's resolution). Result
// proven-ness is downgraded the moment a relaxed prune actually fires.
var tolSchedule = []struct {
	nodes int
	tol   float64
}{
	{0, countTol},
	{2000, 1e-6},
	{8000, 1e-4},
	{20000, 1e-3},
}

func (bb *countBB) tolNow() float64 {
	tol := countTol
	for _, s := range tolSchedule {
		if bb.nodes >= s.nodes {
			tol = s.tol
		}
	}
	return tol
}

type countBox struct {
	lo, hi []int
	bound  float64
}

// solveCountBB runs the search and returns the best packing found, its
// objective value, the number of explored nodes, and whether optimality was
// proven. The node budget bounds every search; inst.Deadline, when set, also
// bounds its wall clock — checked at every node, and on expiry the best
// incumbent is returned with proven=false.
func solveCountBB(inst *Instance, obj Objective, maxNodes int) (perBin []map[int]int, objective float64, nodes int, proven bool) {
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	bb := &countBB{
		inst:     inst,
		obj:      obj,
		fr:       newFlowRelax(inst, obj),
		tol:      countTol,
		max:      maxNodes,
		deadline: inst.Deadline,
		packMemo: make(map[string]packOutcome),
		pack:     newPacker(inst, newFailTable(1+len(inst.BinSet))),
	}
	L := len(inst.Positions)
	root := countBox{lo: make([]int, L), hi: make([]int, L)}
	for i, p := range inst.Positions {
		root.hi[i] = p.K
	}
	root.bound = math.Inf(1)
	bb.proven = true
	bb.seedIncumbent()
	bb.explore(root)
	return bb.incumbent, bb.incumbentVal, bb.nodes, bb.proven
}

// seedIncumbent warm-starts the search with the heuristic solution, whose
// value is a valid lower bound (it is always feasible).
func (bb *countBB) seedIncumbent() {
	res, err := SolveHeuristic(bb.inst, HeuristicOptions{})
	if err != nil {
		return
	}
	bb.consider(res.PerBin, bb.valueOf(res.Counts))
}

func (bb *countBB) consider(perBin []map[int]int, val float64) {
	if !bb.haveInc || val > bb.incumbentVal {
		cp := make([]map[int]int, len(perBin))
		for i, m := range perBin {
			cp[i] = make(map[int]int, len(m))
			for k, v := range m {
				cp[i][k] = v
			}
		}
		bb.incumbent = cp
		bb.incumbentVal = val
		bb.haveInc = true
	}
}

// valueOf evaluates the node objective of a count vector.
func (bb *countBB) valueOf(counts []int) float64 {
	v := 0.0
	for i, p := range bb.inst.Positions {
		n := counts[i]
		for k := 1; k <= n && k <= p.K; k++ {
			if bb.obj == ObjectivePaperCost {
				v += bb.paperReward(i, k)
			} else {
				v += p.Gains[k-1]
			}
		}
	}
	return v
}

// packOutcome is one cached packing-oracle answer. Witnesses and exhaustive
// refutations (conclusive == true) hold at any budget; a budget exhaustion is
// only reusable for queries allowed at most the budget that already failed.
type packOutcome struct {
	perBin     []map[int]int // shared witness; consider() copies before storing
	conclusive bool
	budget     int
}

// packMemoized wraps packCounts with a cache of every prior outcome for the
// search (the cover-children recursion and the per-fractional-node incumbent
// probes revisit count vectors).
func (bb *countBB) packMemoized(n []int, budget int) (perBin []map[int]int, conclusive bool) {
	bb.key = bb.key[:0]
	for _, v := range n {
		bb.key = append(bb.key, byte(v), byte(v>>8), ',')
	}
	if o, ok := bb.packMemo[string(bb.key)]; ok && (o.conclusive || o.budget >= budget) {
		return o.perBin, o.conclusive
	}
	perBin, conclusive = bb.pack.pack(n, budget)
	bb.packMemo[string(bb.key)] = packOutcome{perBin: perBin, conclusive: conclusive, budget: budget}
	return perBin, conclusive
}

// paperReward is item k of position i under the paper-cost objective.
func (bb *countBB) paperReward(i, k int) float64 {
	return bb.fr.w - bb.inst.Positions[i].Costs[k-1]
}

// explore processes one box depth-first (the tree is small; DFS keeps the
// clone-and-solve footprint flat).
func (bb *countBB) explore(box countBox) {
	if bb.nodes >= bb.max || bb.timedOut {
		bb.proven = false
		return
	}
	// One clock read per node, and only under a deadline: a node costs tens
	// of microseconds, so the check is noise and the overshoot is one node.
	if !bb.deadline.IsZero() && time.Now().After(bb.deadline) {
		bb.timedOut = true
		bb.proven = false
		return
	}
	bb.nodes++

	bound, counts, _, feasible := bb.fr.solve(box.lo, box.hi)
	if !feasible {
		return
	}
	if bb.haveInc {
		tol := bb.tolNow()
		if bound <= bb.incumbentVal+tol {
			if bound > bb.incumbentVal+countTol {
				// The prune relied on a relaxed tolerance: the incumbent is
				// only guaranteed within tol of this subtree's optimum.
				bb.proven = false
			}
			return
		}
	}

	L := len(bb.inst.Positions)
	frac, fi := 0.0, -1
	for i, t := range counts {
		f := t - math.Floor(t)
		d := math.Min(f, 1-f)
		if d > 1e-7 && d > frac {
			frac, fi = d, i
		}
	}

	if fi >= 0 {
		// Fractional count: floor/ceil branch. Also try the floored counts
		// as a quick incumbent before descending.
		fl := make([]int, L)
		for i, t := range counts {
			fl[i] = int(math.Floor(t + 1e-9))
			if fl[i] < box.lo[i] {
				fl[i] = box.lo[i]
			}
		}
		// Probe only when a witness could matter: consider replaces the
		// incumbent on a strictly greater value alone, and skipping the
		// oracle call changes nothing a later query sees (see packMemoized).
		if v := bb.valueOf(fl); !bb.haveInc || v > bb.incumbentVal {
			if pb, _ := bb.packMemoized(fl, packIncumbentBudget); pb != nil {
				bb.consider(pb, v)
			}
		}
		down := countBox{lo: append([]int(nil), box.lo...), hi: append([]int(nil), box.hi...), bound: bound}
		down.hi[fi] = int(math.Floor(counts[fi]))
		up := countBox{lo: append([]int(nil), box.lo...), hi: append([]int(nil), box.hi...), bound: bound}
		up.lo[fi] = int(math.Ceil(counts[fi]))
		// Explore the ceil side first: more items is usually better under
		// positive rewards, giving stronger incumbents sooner.
		bb.explore(up)
		bb.explore(down)
		return
	}

	// Integral counts ñ.
	n := make([]int, L)
	for i, t := range counts {
		n[i] = int(math.Round(t))
	}
	pb, conclusive := bb.packMemoized(n, packBudget)
	switch {
	case pb != nil:
		bb.consider(pb, bound)
		// ñ is this box's best integral point; the node is closed.
	default:
		if !conclusive {
			// The packing oracle ran out of budget. Excluding ñ anyway keeps
			// the search sound for every other point but may skip ñ itself,
			// so optimality can no longer be certified.
			bb.nFallback++
			bb.proven = false
		} else {
			bb.nPackFail++
		}
		// Provably unpackable (or assumed so, see above): cover children
		// exclude exactly the points ≥ ñ (none of which is fractionally
		// packable).
		for i := 0; i < L; i++ {
			if n[i]-1 < box.lo[i] {
				continue
			}
			child := countBox{lo: append([]int(nil), box.lo...), hi: append([]int(nil), box.hi...), bound: bound}
			child.hi[i] = n[i] - 1
			bb.explore(child)
		}
	}
}
