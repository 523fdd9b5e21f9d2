package core

import (
	"math"
	"math/bits"
	"time"

	"repro/internal/obs"
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
//   - If the packing oracle exceeds its search budget, the vector is excluded
//     as if unpackable — still sound for every other candidate — and the
//     result is reported as not proven optimal. Exhaustion is not rare: on
//     Fig. 1 length 18 trial 32 (seed 42), 278 of the 772 queries that got
//     past the oracle's greedy pass ran dry, every one an incumbent probe at
//     a fractional node, before the oracle had its refutation stage
//     (refute.go); with it, 9 of the 538 do.
//   - Open boxes are expanded best-bound-first, ties in depth-first order
//     (see solve); a box already filed from another path is not filed again.
//   - Before a box's relaxation is solved, a bound that routes no flow — the
//     lower bounds' rewards plus a fractional knapsack of the other items
//     into the bins' total residual (flowRelax.condemns) — prunes it when it
//     cannot beat the incumbent. Such a box is one the relaxation would have
//     pruned at the same node, so the tree, the node count and the answer
//     are unchanged; on Fig. 1 length 18 trial 32, 10,951 of the 19,019
//     nodes end there.
//   - A floor child (hi_i = ⌊t_i⌋ at a fractional node) resumes its
//     parent's greedy where the parent pushed the item that left t_i
//     fractional (flowRelax.keep and resume), with bit-identical answers;
//     3,776 of 18/32's 8,068 relaxations do.
//   - Before any relaxation is built, the upper corner (every position at its
//     full schedule K) is tried with the packing oracle's greedy pass. All
//     item rewards are positive, so a corner that packs is the optimum, and
//     the search ends there, proven, in one node (upperCorner).
//   - The root is explored before any incumbent exists. When its counts are
//     integral and pack, the search ends there, proven, in one node. Only an
//     open root (fractional counts, or a pack query that refutes or runs dry)
//     seeds the incumbent with Algorithm 2's Heuristic (seedIncumbent), and
//     the search then runs exactly as if the seed had come first. A search
//     whose deadline passes before the root is seeded afterwards, so the
//     Heuristic is the floor of every answer.
//
// Node relaxations are solved combinatorially by flowRelax (a polymatroid
// greedy over a tiny bipartite flow network) rather than by the simplex,
// which makes a node cost microseconds; TestFlowRelaxMatchesSimplexLP pins
// the equivalence of the two relaxations. Most of a relaxation's cost is its
// augmenting-path searches, about 39 on Fig. 1 length 18 trial 32. They run
// on bitset masks (flowrelax.go), so a relaxation there costs about 10 µs,
// where it cost about 16 µs when every search scanned all positions at each
// bin it visited.
type countBB struct {
	rewards
	// fr is the node-relaxation solver (see flowrelax.go), built only when
	// the upper corner does not settle the search.
	fr       *flowRelax
	nodes    int
	max      int
	deadline time.Time // the instance's Deadline; zero means node budget only
	timedOut bool

	// packMemo caches every packing-oracle outcome by count vector (the
	// cover-children recursion and the fractional-node incumbent probes
	// revisit count vectors; witnesses and exhaustive refutations are
	// budget-independent, so both replay for free). It is made on the first
	// query past the upper corner.
	packMemo map[string]packOutcome
	key      []byte // packMemo lookup key scratch
	// pack is the packing oracle's workspace and failure table, reused
	// across every query this search issues.
	pack *packer

	incumbent    [][]int
	incumbentVal float64
	haveInc      bool
	proven       bool

	// open is the frontier, a max-heap (see openBox.before) over boxes
	// whose packed keys (see boxCodec) live in arena, one key a slot; free
	// lists the slots of expanded boxes for reuse. All three stay nil while
	// the root alone settles the search. seq numbers the pushes.
	open  []openBox
	arena []int64
	free  []int
	seq   int
	// snapOf[slot] is the kept relaxation state (flowRelax.keep) of the
	// floor child waiting in that arena slot, -1 when it has none, and
	// snapCondemned when the box bound condemned it as it was filed.
	snapOf []int32
	// pushed holds the key of every box ever pushed (boxKey is the scratch
	// key): cover children of different parents overlap, and a box met
	// twice is filed once.
	codec  boxCodec
	pushed *failTable
	boxKey []int64
	// cur holds the bounds of the box being expanded, decoded from its key;
	// floor holds a fractional node's floored counts.
	cur, floor []int
	// visit, when set, sees every node's relaxation answer before the
	// search reads it, and condemned every box the box bound prunes with
	// the cut it was pruned at (tests use them to walk the solver's own
	// tree).
	visit     func(box countBox, bound float64, counts []float64, flows [][]float64, feasible bool)
	condemned func(box countBox, cut float64)
	// relaxed counts the relaxations solved, warm those that resumed a
	// parent's state.
	relaxed, warm int
}

// snapCondemned marks in countBB.snapOf a floor child the box bound condemned
// when keepFloor filed it.
const snapCondemned int32 = -2

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

// countBox is one node of the count tree: the counts lo_i <= n_i <= hi_i.
type countBox struct {
	lo, hi []int
}

// openBox is a frontier entry: a box waiting in the arena slot slot.
type openBox struct {
	bound float64 // the parent's relaxation bound: no point of the box beats it
	seq   int     // push order (see before)
	slot  int
}

// before orders the frontier heap: the larger parent bound pops first, and
// among equal bounds the newest box, which is the box depth-first search
// would visit next (children are pushed in reverse visiting order).
func (a *openBox) before(b *openBox) bool {
	return a.bound > b.bound || a.bound == b.bound && a.seq > b.seq
}

// solveCountBB runs the search and returns the best packing found, its
// objective value, the number of explored nodes, and whether optimality was
// proven. The node budget bounds every search; inst.Deadline, when set, also
// bounds its wall clock — checked at every node, and on expiry the best
// incumbent is returned with proven=false.
func solveCountBB(inst *Instance, obj Objective, maxNodes int) (perBin [][]int, objective float64, nodes int, proven bool) {
	bb := newCountBB(inst, obj, maxNodes)
	bb.solve()
	putFailTable(bb.pushed)
	putFailTable(bb.pack.failed)
	if bb.relaxed > 0 {
		obs.Default().Counter("ilp_bnb_relaxed").Add(int64(bb.relaxed))
		obs.Default().Counter("ilp_bnb_warm").Add(int64(bb.warm))
	}
	return bb.incumbent, bb.incumbentVal, bb.nodes, bb.proven
}

func newCountBB(inst *Instance, obj Objective, maxNodes int) *countBB {
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	return &countBB{
		rewards:  newRewards(inst, obj),
		max:      maxNodes,
		deadline: inst.Deadline,
		pack:     newPacker(inst, nil),
		proven:   true,
	}
}

// solve explores the tree best-bound-first: the open box with the largest
// parent bound is expanded next, with ties broken in depth-first order (see
// openBox.before). Once the largest open bound cannot beat the incumbent,
// no open box can, and the search ends proven. The root is expanded before
// any heap exists, so a root that settles the search never builds one, and
// an upper corner that packs settles it before the relaxation is built.
func (bb *countBB) solve() {
	L := len(bb.inst.Positions)
	buf := make([]int, 2*L)
	root := countBox{lo: buf[:L:L], hi: buf[L:]}
	for i, p := range bb.inst.Positions {
		root.hi[i] = p.K
	}
	if bb.admit() {
		order := bb.densityOrder()
		if bb.upperCorner(root.hi, order) {
			return
		}
		bb.fr = bb.relax(order)
		bb.expand(root, -1)
	}
	for len(bb.open) > 0 {
		top := bb.pop()
		if bb.haveInc && top.bound <= bb.cut() {
			// No open box can beat the incumbent. Once the answer is
			// unproven anyway, the relaxed tolerance prunes here what it
			// would prune after solving the box (its bound is at most its
			// parent's), without spending the node.
			break
		}
		if !bb.admit() {
			break
		}
		// The box is decoded out of the arena, which the children expand
		// pushes may move, and its slot is free once they are filed.
		w := bb.codec.words
		bb.codec.decode(bb.cur, bb.arena[top.slot*w:(top.slot+1)*w])
		snap := bb.snapOf[top.slot]
		bb.expand(countBox{lo: bb.cur[:L:L], hi: bb.cur[L:]}, snap)
		bb.free = append(bb.free, top.slot)
	}
	if bb.nodes == 0 {
		// The deadline passed before the root was solved: the Heuristic's
		// placement is the floor the answer may not fall below.
		bb.seedIncumbent()
	}
}

// admit counts the next node, or reports false when the node budget or the
// deadline has run out, which leaves the search unproven.
func (bb *countBB) admit() bool {
	if bb.nodes >= bb.max || bb.timedOut {
		bb.proven = false
		return false
	}
	// One clock read per node, and only under a deadline: a node costs tens
	// of microseconds, so the check is noise and the overshoot is one node.
	if !bb.deadline.IsZero() && time.Now().After(bb.deadline) {
		bb.timedOut = true
		bb.proven = false
		return false
	}
	bb.nodes++
	return true
}

// push files a child of box, bounded by bound, that differs from box in one
// count bound: lo[i] = v when raise, hi[i] = v otherwise. It returns the
// child's arena slot, or -1 when the child was filed before. The first push
// gives the tree its frontier, and from then on the relaxation logs what
// floor children need to resume (flowRelax.keep).
func (bb *countBB) push(box countBox, i int, raise bool, v int, bound float64) int {
	if bb.pushed == nil {
		bb.codec = newBoxCodec(bb.inst)
		bb.pushed = getFailTable(bb.codec.words)
		bb.boxKey = make([]int64, bb.codec.words)
		bb.cur = make([]int, 2*len(box.lo))
		bb.fr.startLogging()
	}
	key := bb.boxKey
	bb.codec.encode(key, box, i, raise, v)
	var hash uint64
	for k, x := range key {
		hash ^= mixSlot(k, x)
	}
	if bb.pushed.has(hash, key) {
		return -1
	}
	bb.pushed.insert(hash, key)
	w := len(key)
	var slot int
	if n := len(bb.free); n > 0 {
		slot, bb.free = bb.free[n-1], bb.free[:n-1]
		copy(bb.arena[slot*w:], key)
		bb.snapOf[slot] = -1
	} else {
		slot = len(bb.arena) / w
		bb.arena = append(bb.arena, key...)
		bb.snapOf = append(bb.snapOf, -1)
	}
	bb.seq++
	h := append(bb.open, openBox{bound: bound, seq: bb.seq, slot: slot})
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if !h[c].before(&h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
	bb.open = h
	return slot
}

// boxCodec packs a count box into a key of int64 words: position k's bounds
// become one field of 2·bits bits, lo above hi, where bits is wide enough
// for the largest schedule length K, and each word holds perWord fields.
// Every bound lies in [0, K], so two boxes are equal exactly when their
// keys are. On Fig. 1 length 18 trial 32 the tree's component has 15
// positions with K ≤ 15, so a box packs into 2 words, where it took 30 ints
// in the frontier and 15 int64 slots in the table.
type boxCodec struct {
	bits, perWord, words int
}

func newBoxCodec(inst *Instance) boxCodec {
	maxK := 1
	for _, p := range inst.Positions {
		maxK = max(maxK, p.K)
	}
	c := boxCodec{bits: bits.Len(uint(maxK))}
	c.perWord = 64 / (2 * c.bits)
	c.words = (len(inst.Positions) + c.perWord - 1) / c.perWord
	return c
}

// encode writes the key of box's child with lo[i] = v (raise) or hi[i] = v
// into key.
func (c boxCodec) encode(key []int64, box countBox, i int, raise bool, v int) {
	clear(key)
	for k, lo := range box.lo {
		hi := box.hi[k]
		if k == i {
			if raise {
				lo = v
			} else {
				hi = v
			}
		}
		field := uint64(lo)<<c.bits | uint64(hi)
		key[k/c.perWord] |= int64(field << (2 * c.bits * (k % c.perWord)))
	}
}

// decode writes the box of key into cur: the lower bounds, then the upper.
func (c boxCodec) decode(cur []int, key []int64) {
	L := len(cur) / 2
	mask := uint64(1)<<c.bits - 1
	for k := 0; k < L; k++ {
		field := uint64(key[k/c.perWord]) >> (2 * c.bits * (k % c.perWord))
		cur[k] = int(field >> c.bits & mask)
		cur[L+k] = int(field & mask)
	}
}

// pop removes and returns the frontier's first entry.
func (bb *countBB) pop() openBox {
	h := bb.open
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[p]) {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	bb.open = h
	return top
}

// seedIncumbent warm-starts the search with the heuristic solution, whose
// value is a valid lower bound (it is always feasible). It runs at most once
// per search: at the root, when the root relaxation does not close (see
// expand), and otherwise only when the deadline passed before the root, so
// that a timed-out search still answers no worse than the Heuristic.
func (bb *countBB) seedIncumbent() {
	res, err := SolveHeuristic(bb.inst, HeuristicOptions{})
	if err != nil {
		return
	}
	bb.consider(res.PerBin, bb.valueOf(res.Counts))
}

// upperCorner tries the root box's upper corner hi, every position at its
// full schedule, with the packing oracle's greedy pass alone; order is every
// item by density. Every item
// reward is positive, so a corner that packs is the component's optimum: it
// becomes the incumbent, proven, and the search ends in its one node. The
// root relaxation would have had the same counts and its pack query the same
// witness. The value is every item's reward summed in density order, which
// is the root relaxation's value when it routes every item whole (DESIGN.md
// §8, "The upper corner", says where the two part in the last bits). A
// corner the greedy pass cannot pack leaves no trace: the relaxation and the
// search then run as before.
func (bb *countBB) upperCorner(hi []int, order []flowItem) bool {
	bb.pack.setQuery(hi, 0)
	pb := bb.pack.greedy()
	if pb == nil {
		return false
	}
	val := 0.0
	for _, it := range order {
		val += it.reward
	}
	bb.consider(pb, val)
	return true
}

// consider makes perBin the incumbent when val beats it. It keeps perBin
// itself, not a copy: every witness is built by the oracle for this search,
// and nothing changes one until the search has returned it.
func (bb *countBB) consider(perBin [][]int, val float64) {
	if !bb.haveInc || val > bb.incumbentVal {
		bb.incumbent = perBin
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
	perBin     [][]int // witness, shared with the incumbent when consider keeps it
	conclusive bool
	budget     int
}

// packMemoized wraps the packing oracle with a cache of every prior outcome
// for the search (the cover-children recursion and the per-fractional-node
// incumbent probes revisit count vectors).
func (bb *countBB) packMemoized(n []int, budget int) (perBin [][]int, conclusive bool) {
	bb.key = bb.key[:0]
	for _, v := range n {
		bb.key = append(bb.key, byte(v), byte(v>>8), ',')
	}
	if o, ok := bb.packMemo[string(bb.key)]; ok && (o.conclusive || o.budget >= budget) {
		return o.perBin, o.conclusive
	}
	if bb.packMemo == nil {
		bb.packMemo = make(map[string]packOutcome)
	}
	perBin, conclusive = bb.pack.pack(n, budget)
	bb.packMemo[string(bb.key)] = packOutcome{perBin: perBin, conclusive: conclusive, budget: budget}
	return perBin, conclusive
}

// paperReward is item k of position i under the paper-cost objective.
func (bb *countBB) paperReward(i, k int) float64 {
	return bb.w - bb.inst.Positions[i].Costs[k-1]
}

// roundCounts returns integral relaxation counts as ints.
func roundCounts(counts []float64) []int {
	n := make([]int, len(counts))
	for i, t := range counts {
		n[i] = int(math.Round(t))
	}
	return n
}

// cut is the bound at or below which a box is pruned without touching the
// answer's proof: the base tolerance while the search is proven, the
// schedule's once it is not (a relaxed prune then costs nothing more).
func (bb *countBB) cut() float64 {
	if bb.proven {
		return bb.incumbentVal + countTol
	}
	return bb.incumbentVal + bb.tolNow()
}

// expand evaluates one admitted box: it prunes the box by its box bound, or
// else solves the box's relaxation — resuming from snap, its kept state,
// when it has one (-1: none) — closes the box or prunes it, and otherwise
// pushes its children. A box the box bound prunes is one the relaxation
// would have pruned at the same node with the proof unchanged, so the tree
// is the same either way. A floor child condemned as it was filed
// (snapCondemned) is pruned without a second verdict: the cut only rises
// (the incumbent and tolNow only rise, proven only falls), and condemns is
// monotone in the cut.
func (bb *countBB) expand(box countBox, snap int32) {
	if bb.haveInc {
		if cut := bb.cut(); snap == snapCondemned || bb.fr.condemns(box.lo, box.hi, cut) {
			if snap >= 0 {
				bb.fr.snaps.put(snap)
			}
			if bb.condemned != nil {
				bb.condemned(box, cut)
			}
			return
		}
	}
	bb.relaxed++
	var bound float64
	var counts []float64
	var flows [][]float64
	var feasible bool
	if snap >= 0 {
		bb.warm++
		bound, counts, flows, feasible = bb.fr.resume(snap, box.lo, box.hi)
	} else {
		bound, counts, flows, feasible = bb.fr.solve(box.lo, box.hi)
	}
	if bb.visit != nil {
		bb.visit(box, bound, counts, flows, feasible)
	}
	if !feasible {
		return
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

	if bb.nodes == 1 {
		// The root: when its counts are integral and pack, they are the
		// optimum, and the search ends here without a Heuristic call. Every
		// search starts at the same root box, so its bound is the answer's
		// value whatever the search order.
		if fi < 0 {
			if pb, _ := bb.packMemoized(roundCounts(counts), packBudget); pb != nil {
				bb.consider(pb, bound)
				return
			}
		}
		// The root stays open. Nothing above read the incumbent, so seeding
		// here gives every later node the incumbent it had when the seed ran
		// before the search; the pack query is memoized for the cover path.
		bb.seedIncumbent()
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

	if fi >= 0 {
		// Fractional count: floor/ceil branch. Also try the floored counts
		// as a quick incumbent before descending.
		if bb.floor == nil {
			bb.floor = make([]int, L)
		}
		fl := bb.floor
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
		// The ceil side pops first among equal bounds: more items is usually
		// better under positive rewards, giving stronger incumbents sooner.
		floor, ceil := int(math.Floor(counts[fi])), int(math.Ceil(counts[fi]))
		if slot := bb.push(box, fi, false, floor, bound); slot >= 0 {
			bb.keepFloor(box, fi, floor, slot)
		}
		bb.push(box, fi, true, ceil, bound)
		return
	}

	// Integral counts ñ.
	n := roundCounts(counts)
	pb, conclusive := bb.packMemoized(n, packBudget)
	switch {
	case pb != nil:
		// The incumbent's value is the counts' own objective, not the
		// relaxation's sum, whose float rounding depends on the box's lower
		// bounds: the same counts reached by another path read the same.
		bb.consider(pb, bb.valueOf(n))
		// ñ is this box's best integral point; the node is closed.
	default:
		if !conclusive {
			// The packing oracle ran out of budget. Excluding ñ anyway keeps
			// the search sound for every other point but may skip ñ itself,
			// so optimality can no longer be certified.
			bb.proven = false
		}
		// Provably unpackable (or assumed so, see above): cover children
		// exclude exactly the points ≥ ñ (none of which is fractionally
		// packable). Pushed last to first, they pop first to last among
		// equal bounds.
		for i := L - 1; i >= 0; i-- {
			if n[i]-1 < box.lo[i] {
				continue
			}
			bb.push(box, i, false, n[i]-1, bound)
		}
	}
}

// keepFloor keeps the relaxation state that the floor child of box at
// position fi (hi[fi] = floor), filed in slot, resumes from — unless the box
// bound already condemns the child: the verdict is kept instead, and the
// child is pruned unrelaxed when it pops (see expand).
func (bb *countBB) keepFloor(box countBox, fi, floor, slot int) {
	hi := box.hi[fi]
	box.hi[fi] = floor
	doomed := bb.haveInc && bb.fr.condemns(box.lo, box.hi, bb.cut())
	box.hi[fi] = hi
	if doomed {
		bb.snapOf[slot] = snapCondemned
	} else {
		bb.snapOf[slot] = bb.fr.keep(fi, floor)
	}
}
