package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// flowRelax solves the node relaxation of the count branch-and-bound exactly
// and combinatorially, replacing a general simplex call with a polymatroid
// greedy that runs in microseconds at this problem's sizes.
//
// The relaxation is: maximize Σ_i G_i(T_i) over fractional counts T, where
// G_i is the concave piecewise-linear prefix-sum of position i's (strictly
// decreasing, positive) item rewards, subject to lo ≤ T ≤ hi and T being
// fractionally packable into the bins. In scaled units x_{i,u} = c_i·y_{i,u}
// the packable region is an independent-flow polytope over the tiny
// positions×bins bipartite network, whose projection onto T is a polymatroid
// (max-flow/min-cut submodularity); box-intersections and lower-bound
// contractions of polymatroids are again polymatroids, so the classic result
// of Federgruen & Groenevelt applies: processing items in decreasing
// gain-per-MHz order and raising each coordinate to its maximal feasible
// extent (an augmenting-path computation) yields the exact optimum.
//
// Returns the optimal objective, the fractional counts, the per-(position,
// bin) flows in instances (flow/c_i), and whether the box is feasible at all
// (lower bounds can make it infeasible).
type flowRelax struct {
	rewards

	// static, built once per countBB:
	order []flowItem // all items, decreasing density
	// arcCap[i][b] is the MHz capacity of the arc position i → its b-th bin:
	// slots_{i,b}·c_i, the integral-slot upper bound the paper's ILP puts on
	// y_{i,u}. Without it the relaxation would be weaker than the LP.
	arcCap [][]float64
	// arc[i*len(BinSet)+bi] numbers the arc position i → bin BinSet[bi]
	// (-1: not one of i's bins). Arcs are numbered position by position in
	// Bins order, so arcCap[i] and flow[i] are windows of capAt and flowAt,
	// which augment reads by arc number alone, and walking an arc never
	// scans Bins.
	arc   []int
	capAt []float64
	// posWords and binWords are the uint64 words of a position mask and of
	// a bin mask; bit k of a mask is position k, or the bin BinSet[k].
	posWords, binWords int
	// open0 is open (below) at zero flow: each position's arcs of positive
	// capacity.
	open0 []uint64

	// per-solve scratch, reused across the thousands of relaxation calls a
	// count branch-and-bound makes (callers never retain the returned
	// counts/flows past the next solve):
	flow    [][]float64
	flowAt  []float64
	binCap  []float64
	binUsed []float64
	counts  []float64
	// The augmenting-path search runs on masks that augment keeps in step
	// with the flows, each bit the predicate the search tests:
	// open[i*binWords:] holds the bins bi whose arc from position i is
	// unsaturated (arcCap−flow > flowEps), into[bi*posWords:] the positions
	// that route flow into bin bi (flow > flowEps), and spare the bins with
	// spare capacity (binCap−binUsed > flowEps). seenPos and seenBin are
	// one search's visited sets.
	open, into, spare []uint64
	seenPos, seenBin  []uint64
	// blocked[i]: an augmenting-path search from a position that reaches i
	// found no path, so no later augmentation of this solve routes any flow
	// from i (see augment). left[i] is how many of i's phase-2 items are
	// still to be tried, and pending counts the positions with items left
	// that are not blocked: phase 2 ends when it reaches 0.
	blocked []bool
	left    []int
	pending int
	log     []flowHop

	// The box bound (see condemns): totalCap is Σ binCap, the knapsack's
	// capacity, and finite reports that every item reward is finite (a
	// paper-cost reward of an Uncapped schedule is ∞ − ∞); without it
	// condemns never prunes.
	totalCap float64
	finite   bool

	// Floor children resume (see keep and resume). ascending reports that
	// every position's items come in k order in order, which resume needs;
	// logging is on once the count tree has a frontier (startLogging). While a
	// logged phase 2 runs (rec), undo holds the value every change replaced,
	// and marks[i] is position i's partial push (off < 0: none). snaps holds
	// the kept states.
	ascending bool
	logging   bool
	rec       bool
	undo      []undoEntry
	marks     []pushMark
	snaps     snapPool
}

// undoEntry is one logged change of phase 2: which value (kind, index) and
// what it held before.
type undoEntry struct {
	kind uint8
	at   int32
	old  float64
}

const (
	undoFlow    = iota // flowAt[at]
	undoBinUsed        // binUsed[at]
	undoCount          // counts[at]
	undoLeft           // left[at]
	undoBlocked        // blocked[at], which was false
)

// pushMark is where a push began: its offset in the undo log, its index in
// the order, and the objective and pending count before it.
type pushMark struct {
	off, idx, pending int
	obj               float64
}

// rewards prices an instance's items under one objective.
type rewards struct {
	inst *Instance
	obj  Objective
	w    float64 // paper-cost dominating reward (0 for log-gain)
}

func newRewards(inst *Instance, obj Objective) rewards {
	rw := rewards{inst: inst, obj: obj}
	if obj == ObjectivePaperCost {
		rw.w = paperCostDominator(inst)
	}
	return rw
}

// flowHop is one BFS step of an augmenting-path search.
type flowHop struct {
	node int
	prev int // index into the visit log
}

type flowItem struct {
	pos     int
	k       int // 1-based item index
	reward  float64
	density float64
}

// relax builds the flow relaxation over the items in order, which is
// rw.densityOrder().
func (rw rewards) relax(order []flowItem) *flowRelax {
	inst := rw.inst
	fr := &flowRelax{rewards: rw, order: order}
	nArcs := 0
	for i := range inst.Positions {
		nArcs += len(inst.Positions[i].Bins)
	}
	fr.capAt, fr.flowAt = make([]float64, nArcs), make([]float64, nArcs)
	fr.arcCap = make([][]float64, len(inst.Positions))
	fr.flow = make([][]float64, len(inst.Positions))
	k := 0
	for i := range inst.Positions {
		p := &inst.Positions[i]
		n := len(p.Bins)
		fr.arcCap[i], fr.flow[i] = fr.capAt[k:k+n:k+n], fr.flowAt[k:k+n:k+n]
		k += n
		for b := range p.Bins {
			slots := p.Slots[b]
			if slots > p.K {
				slots = p.K
			}
			fr.arcCap[i][b] = float64(slots) * p.Func.Demand
		}
	}
	binIdx := make([]int, len(inst.Residual)) // bin node id -> index into BinSet
	fr.binCap = make([]float64, len(inst.BinSet))
	fr.binUsed = make([]float64, len(inst.BinSet))
	fr.counts = make([]float64, len(inst.Positions))
	fr.blocked = make([]bool, len(inst.Positions))
	fr.left = make([]int, len(inst.Positions))
	for bi, u := range inst.BinSet {
		binIdx[u] = bi
		fr.binCap[bi] = inst.Residual[u]
		fr.totalCap += inst.Residual[u]
	}
	fr.finite, fr.ascending = true, true
	lastK := fr.left // every entry is 0 until the first solve
	for _, it := range order {
		if math.IsInf(it.reward, 0) || math.IsNaN(it.reward) || math.IsInf(it.density, 0) || math.IsNaN(it.density) {
			fr.finite = false
		}
		if it.k < lastK[it.pos] {
			fr.ascending = false
		}
		lastK[it.pos] = it.k
	}
	clear(lastK)
	fr.arc = make([]int, len(inst.Positions)*len(inst.BinSet))
	for k := range fr.arc {
		fr.arc[k] = -1
	}
	nPos, nBin := len(inst.Positions), len(inst.BinSet)
	pw, bw := maskWords(nPos), maskWords(nBin)
	fr.posWords, fr.binWords = pw, bw
	fr.snaps = snapPool{floats: nArcs + nBin + nPos + 1, ints: 2*nPos + 2}
	masks := make([]uint64, 2*nPos*bw+nBin*pw+2*bw+pw)
	carve := func(n int) []uint64 {
		m := masks[:n:n]
		masks = masks[n:]
		return m
	}
	fr.open0, fr.open, fr.into = carve(nPos*bw), carve(nPos*bw), carve(nBin*pw)
	fr.spare, fr.seenBin, fr.seenPos = carve(bw), carve(bw), carve(pw)
	k = 0
	for i := range inst.Positions {
		for _, u := range inst.Positions[i].Bins {
			bi := binIdx[u]
			fr.arc[i*nBin+bi] = k
			if fr.capAt[k] > flowEps {
				setBit(fr.open0[i*bw:], bi, true)
			}
			k++
		}
	}
	return fr
}

// maskWords is the number of uint64 words a mask over n bits takes.
func maskWords(n int) int { return (n + 63) / 64 }

// setBit sets or clears bit k of mask m.
func setBit(m []uint64, k int, on bool) {
	if on {
		m[k>>6] |= 1 << (k & 63)
	} else {
		m[k>>6] &^= 1 << (k & 63)
	}
}

// item is item k (1-based) of position i under the relaxation's objective.
func (rw rewards) item(i, k int) flowItem {
	p := &rw.inst.Positions[i]
	reward := p.Gains[k-1]
	if rw.obj == ObjectivePaperCost {
		reward = rw.w - p.Costs[k-1]
	}
	return flowItem{pos: i, k: k, reward: reward, density: reward / p.Func.Demand}
}

// densityOrder lists every item by non-increasing density, equal densities
// by position and then by k: the order a stable sort of the position-major
// item list gives. Each position's own items already come in that order
// (gains strictly fall, paper-cost rewards do not rise, and the demand is
// fixed), so the order is an L-way merge of the positions' lists: each step
// takes the densest head, the smallest position on a tie. Should a list rise
// after all (float rounding among the near-zero gains of an Uncapped
// schedule), the merge gives way to the stable sort. Each item is priced
// once, when it becomes its position's head, and the heads compare by
// densityKey.
func (rw rewards) densityOrder() []flowItem {
	type head struct {
		key uint64
		it  flowItem
	}
	positions := rw.inst.Positions
	order := make([]flowItem, 0, rw.inst.TotalItems())
	var buf [16]head
	heads := buf[:0] // each unfinished position's next item, by position
	for i := range positions {
		if positions[i].K > 0 {
			it := rw.item(i, 1)
			heads = append(heads, head{densityKey(it.density), it})
		}
	}
	for len(heads) > 0 {
		h := 0
		for j := 1; j < len(heads); j++ {
			if heads[h].key < heads[j].key {
				h = j
			}
		}
		it := heads[h].it
		order = append(order, it)
		if it.k == positions[it.pos].K {
			heads = slices.Delete(heads, h, h+1)
			continue
		}
		next := rw.item(it.pos, it.k+1)
		key := densityKey(next.density)
		if heads[h].key < key {
			return rw.sortedOrder()
		}
		heads[h] = head{key, next}
	}
	return order
}

// densityKey maps a density to an integer that orders as cmp.Compare, which
// the sort uses, orders densities: a NaN (the paper-cost reward ∞ − ∞ of an
// Uncapped schedule) is the least value, and −0 equals +0.
func densityKey(d float64) uint64 {
	switch {
	case d != d:
		return 0
	case d == 0:
		d = 0
	}
	b := math.Float64bits(d)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortedOrder is densityOrder by stable sort, for schedules whose densities
// do not fall within a position.
func (rw rewards) sortedOrder() []flowItem {
	order := make([]flowItem, 0, rw.inst.TotalItems())
	for i, p := range rw.inst.Positions {
		for k := 1; k <= p.K; k++ {
			order = append(order, rw.item(i, k))
		}
	}
	slices.SortStableFunc(order, func(a, b flowItem) int {
		return cmp.Compare(b.density, a.density)
	})
	return order
}

const flowEps = 1e-9

// phase1Slack is how far short of a lower bound's demand (MHz) phase 1 may
// route and still count the box feasible.
const phase1Slack = 1e-6

// solve evaluates one box. flows[i] is indexed like Positions[i].Bins.
func (fr *flowRelax) solve(lo, hi []int) (obj float64, counts []float64, flows [][]float64, feasible bool) {
	inst := fr.inst
	nPos := len(inst.Positions)

	// flow[i][b] is the MHz routed from position i to its b-th bin, and
	// binUsed[bi] the MHz in bin slot bi. All reused scratch.
	clear(fr.flowAt)
	clear(fr.binUsed)
	copy(fr.open, fr.open0)
	clear(fr.into)
	clear(fr.spare)
	for bi := range fr.binCap {
		if fr.binCap[bi]-fr.binUsed[bi] > flowEps {
			setBit(fr.spare, bi, true)
		}
	}
	counts = fr.counts
	for i := range counts {
		counts[i] = 0
		fr.blocked[i] = false
		fr.left[i] = 0
	}

	// Phase 1: satisfy lower bounds.
	for i := 0; i < nPos; i++ {
		if lo[i] <= 0 {
			continue
		}
		need := float64(lo[i]) * inst.Positions[i].Func.Demand
		got := fr.push(i, need)
		if need-got > phase1Slack {
			return 0, nil, nil, false
		}
		counts[i] = float64(lo[i])
		if fr.obj == ObjectivePaperCost {
			for k := 1; k <= lo[i]; k++ {
				obj += fr.w - inst.Positions[i].Costs[k-1]
			}
		} else {
			for k := 1; k <= lo[i]; k++ {
				obj += inst.Positions[i].Gains[k-1]
			}
		}
	}

	fr.pending = 0
	for i := range fr.left {
		if hi[i] > lo[i] {
			fr.left[i] = hi[i] - lo[i]
			if !fr.blocked[i] {
				fr.pending++
			}
		}
	}
	return fr.phase2(lo, hi, 0, obj), counts, fr.flow, true
}

// push routes up to amount MHz from position i into its bins, using
// augmenting paths through the bipartite residual network (positions may
// reroute each other's flow). Returns the amount actually routed.
func (fr *flowRelax) push(i int, amount float64) float64 {
	routed := 0.0
	for amount-routed > flowEps {
		delta := fr.augment(i, amount-routed, fr.binUsed, fr.binCap)
		if delta <= flowEps {
			break
		}
		routed += delta
	}
	return routed
}

// startLogging turns on phase 2's log for every later solve.
func (fr *flowRelax) startLogging() {
	fr.logging = true
	fr.marks = make([]pushMark, len(fr.counts))
	for i := range fr.marks {
		fr.marks[i].off = -1
	}
}

// phase2 is the greedy by density over the box's remaining items, from
// order index from on, adding to obj. A blocked position's push would route
// nothing, so its items are skipped, and once no position has an item left
// to try, the rest of the order is.
//
// With logging on, every change is logged with the value it replaced, and
// a push that routes part of its item (and so leaves its position blocked)
// marks where it began: keep can then rebuild the state before that push.
func (fr *flowRelax) phase2(lo, hi []int, from int, obj float64) float64 {
	inst, counts := fr.inst, fr.counts
	fr.rec = fr.logging
	if fr.rec {
		fr.undo = fr.undo[:0]
		for i := range fr.marks {
			fr.marks[i].off = -1
		}
	}
	for j := from; j < len(fr.order); j++ {
		if fr.pending == 0 {
			break
		}
		it := fr.order[j]
		if it.k <= lo[it.pos] || it.k > hi[it.pos] || fr.blocked[it.pos] {
			continue
		}
		var mark pushMark
		if fr.rec {
			mark = pushMark{off: len(fr.undo), idx: j, pending: fr.pending, obj: obj}
			fr.undo = append(fr.undo,
				undoEntry{undoLeft, int32(it.pos), float64(fr.left[it.pos])},
				undoEntry{undoCount, int32(it.pos), counts[it.pos]})
		}
		demand := inst.Positions[it.pos].Func.Demand
		got := fr.push(it.pos, demand)
		if fr.left[it.pos]--; fr.left[it.pos] == 0 && !fr.blocked[it.pos] {
			fr.pending--
		}
		if got <= flowEps {
			continue
		}
		frac := got / demand
		obj += it.reward * frac
		counts[it.pos] += frac
		if fr.rec && fr.blocked[it.pos] {
			fr.marks[it.pos] = mark
		}
	}
	fr.rec = false
	return obj
}

// condemns reports whether no point of the box [lo, hi] can relax above
// cut, by a bound that routes no flow: the rewards of the lower bounds,
// plus the fractional knapsack, in density order, of the box's other items
// into every bin's residual less the lower bounds' demand. Phase 2 routes
// each item at most its demand, and no more in all than the bins hold
// beyond what phase 1 routed, which is each lower bound's demand less at
// most phase1Slack; so the knapsack, given that slack back, bounds it. The
// relaxation's sums and flows round differently from the bound's, by far
// less than boundMargin of the terms summed (DESIGN.md §8, "The box
// bound"); the bound is compared with that margin added.
func (fr *flowRelax) condemns(lo, hi []int, cut float64) bool {
	if !fr.finite {
		return false
	}
	inst := fr.inst
	bound, mag, room := 0.0, 0.0, fr.totalCap
	for i, l := range lo {
		if l <= 0 {
			continue
		}
		p := &inst.Positions[i]
		for k := 1; k <= l; k++ {
			r := p.Gains[k-1]
			if fr.obj == ObjectivePaperCost {
				r = fr.w - p.Costs[k-1]
			}
			bound += r
			mag += math.Abs(r)
		}
		room -= float64(l)*p.Func.Demand - phase1Slack
	}
	for _, it := range fr.order {
		if room <= 0 || it.density <= 0 {
			break
		}
		if it.k <= lo[it.pos] || it.k > hi[it.pos] {
			continue
		}
		if bound > cut {
			// Every term still to come is positive.
			return false
		}
		// No item still to come is denser than it, so the knapsack earns
		// at most it.density·room more.
		if rest := it.density * room; bound+rest+boundMargin*(mag+rest) <= cut {
			return true
		}
		d := inst.Positions[it.pos].Func.Demand
		r := it.reward
		if d > room {
			r = it.density * room
		}
		bound += r
		mag += r
		room -= d
	}
	return bound+boundMargin*mag <= cut
}

// boundMargin is the relative rounding margin of condemns (see there).
const boundMargin = 1e-10

// keep saves the state the floor child at position i of the box just
// solved starts from — the same box with hi_i = floor — and returns its
// snapshot, or -1 when there is none to keep. The child's greedy runs as
// the parent's did up to the parent's push of item floor+1 of position i,
// which the child skips: every earlier item of i has a smaller k
// (ascending), and every other item is in both boxes alike. That push is
// i's partial push, the one that left i fractional, so the state before it
// is the state after the solve with every later logged change undone. A
// push that was not logged (it lies in a prefix this solve resumed past, or
// the solve was not logged) leaves nothing to keep.
func (fr *flowRelax) keep(i, floor int) int32 {
	m := fr.marks[i]
	if !fr.ascending || m.off < 0 || fr.order[m.idx].k != floor+1 {
		return -1
	}
	id := fr.snaps.get()
	f, n := fr.snaps.at(id)
	nArcs, nBin, nPos := len(fr.flowAt), len(fr.binUsed), len(fr.counts)
	flowAt, binUsed, counts := f[:nArcs], f[nArcs:nArcs+nBin], f[nArcs+nBin:nArcs+nBin+nPos]
	left, blocked := n[:nPos], n[nPos:2*nPos]
	copy(flowAt, fr.flowAt)
	copy(binUsed, fr.binUsed)
	copy(counts, fr.counts)
	for k, v := range fr.left {
		left[k] = int32(v)
		blocked[k] = 0
		if fr.blocked[k] {
			blocked[k] = 1
		}
	}
	for e := len(fr.undo) - 1; e >= m.off; e-- {
		u := fr.undo[e]
		switch u.kind {
		case undoFlow:
			flowAt[u.at] = u.old
		case undoBinUsed:
			binUsed[u.at] = u.old
		case undoCount:
			counts[u.at] = u.old
		case undoLeft:
			left[u.at] = int32(u.old)
		case undoBlocked:
			blocked[u.at] = 0
		}
	}
	f[len(f)-1] = m.obj
	n[2*nPos], n[2*nPos+1] = int32(m.pending), int32(m.idx)
	return id
}

// resume solves the box [lo, hi] from snapshot id, which keep saved for it,
// and returns the snapshot to the pool: the answer is solve's, bit for bit.
func (fr *flowRelax) resume(id int32, lo, hi []int) (obj float64, counts []float64, flows [][]float64, feasible bool) {
	f, n := fr.snaps.at(id)
	nArcs, nBin, nPos := len(fr.flowAt), len(fr.binUsed), len(fr.counts)
	copy(fr.flowAt, f[:nArcs])
	copy(fr.binUsed, f[nArcs:nArcs+nBin])
	copy(fr.counts, f[nArcs+nBin:nArcs+nBin+nPos])
	for k := range fr.left {
		fr.left[k] = int(n[k])
		fr.blocked[k] = n[nPos+k] != 0
	}
	obj, fr.pending = f[len(f)-1], int(n[2*nPos])
	idx := int(n[2*nPos+1])
	fr.snaps.put(id)
	// The masks are functions of the flows and the bins' usage.
	clear(fr.open)
	clear(fr.into)
	for i := 0; i < nPos; i++ {
		for bi := 0; bi < nBin; bi++ {
			if k := fr.arc[i*nBin+bi]; k >= 0 {
				fr.arcMoved(i, bi, k)
			}
		}
	}
	for bi := range fr.binCap {
		setBit(fr.spare, bi, fr.binCap[bi]-fr.binUsed[bi] > flowEps)
	}
	// The child's box ends below the skipped item, so its position has no
	// item left to try.
	if p := fr.order[idx].pos; fr.left[p] > 0 {
		fr.left[p] = 0
		if !fr.blocked[p] {
			fr.pending--
		}
	}
	return fr.phase2(lo, hi, idx+1, obj), fr.counts, fr.flow, true
}

// snapPool is the kept states of floor children: snapshot id holds floats
// floats (flows, bin usage, counts, objective) and ints int32s (left,
// blocked, pending, order index), and free lists the ids to reuse. Chunk c
// holds snapChunk0<<c snapshots, so the pool grows without copying and a
// small tree allocates a small chunk.
type snapPool struct {
	floats, ints int
	f            [][]float64
	n            [][]int32
	next         int32 // ids below next have been handed out
	free         []int32
}

const snapChunk0 = 4

func (sp *snapPool) get() int32 {
	if k := len(sp.free); k > 0 {
		id := sp.free[k-1]
		sp.free = sp.free[:k-1]
		return id
	}
	id := sp.next
	sp.next++
	if c, _ := snapChunk(id); c == len(sp.f) {
		size := snapChunk0 << c
		sp.f = append(sp.f, make([]float64, size*sp.floats))
		sp.n = append(sp.n, make([]int32, size*sp.ints))
	}
	return id
}

func (sp *snapPool) put(id int32) { sp.free = append(sp.free, id) }

func (sp *snapPool) at(id int32) ([]float64, []int32) {
	c, k := snapChunk(id)
	a, b := k*sp.floats, k*sp.ints
	return sp.f[c][a : a+sp.floats : a+sp.floats], sp.n[c][b : b+sp.ints : b+sp.ints]
}

// snapChunk is the chunk of snapshot id and its index there: chunks before
// c hold snapChunk0·(2^c − 1) snapshots.
func snapChunk(id int32) (c, k int) {
	c = bits.Len(uint(id)+snapChunk0) - bits.Len(snapChunk0)
	return c, int(id) + snapChunk0 - snapChunk0<<c
}

// augment finds one augmenting path from position src to any bin with spare
// capacity in the residual network and pushes up to want MHz along it.
// Residual arcs: position→its bins (always available), bin→position (if that
// position currently routes flow into the bin, it can be rerouted).
//
// The search is breadth-first over the masks of flowRelax: a position's
// unvisited bins behind unsaturated arcs are open &^ seenBin, a bin's
// unvisited positions that can withdraw from it into &^ seenPos. Bits are
// taken ascending, and ascending bin index is the order of every position's
// Bins (both Bins and BinSet ascend), so the search visits what a scan of
// Bins and of all positions visits, in that order: it stops at the same
// first free bin and returns the same path.
//
// When there is no path, the search has visited the whole set R reachable
// from src: R has no residual arc leaving it and no bin with spare capacity.
// A later augmenting path could enter R but neither leave it nor end in it,
// so none ever touches an arc or a bin of R, and R stays closed for the rest
// of the solve. Every position of R is marked blocked.
func (fr *flowRelax) augment(src int, want float64, binUsed, binCap []float64) float64 {
	inst := fr.inst
	nPos, nBin := len(inst.Positions), len(inst.BinSet)
	pw, bw := fr.posWords, fr.binWords
	seenPos, seenBin, spareBin := fr.seenPos, fr.seenBin, fr.spare
	capAt, flow := fr.capAt, fr.flowAt

	// The search's first step: when one of src's unsaturated arcs leads to
	// a free bin, the first such bin ends the search, and the path is that
	// one arc.
	for w, m := range fr.open[src*bw : src*bw+bw] {
		if free := m & spareBin[w]; free != 0 {
			bi := w<<6 + bits.TrailingZeros64(free)
			k := fr.arc[src*nBin+bi]
			bottleneck := want
			if spare := binCap[bi] - binUsed[bi]; spare < bottleneck {
				bottleneck = spare
			}
			if spare := capAt[k] - flow[k]; spare < bottleneck {
				bottleneck = spare
			}
			if bottleneck <= flowEps {
				return 0
			}
			if fr.rec {
				fr.undo = append(fr.undo, undoEntry{undoFlow, int32(k), flow[k]}, undoEntry{undoBinUsed, int32(bi), binUsed[bi]})
			}
			flow[k] += bottleneck
			fr.arcMoved(src, bi, k)
			binUsed[bi] += bottleneck
			setBit(spareBin, bi, binCap[bi]-binUsed[bi] > flowEps)
			return bottleneck
		}
	}

	// BFS over nodes: positions [0,nPos), bins [nPos, nPos+nBin).
	clear(seenPos)
	clear(seenBin)
	log := append(fr.log[:0], flowHop{node: src, prev: -1})
	setBit(seenPos, src, true)
	goal := -1
search:
	for qi := 0; qi < len(log); qi++ {
		n := log[qi].node
		if n < nPos {
			// position → bins it may use, through unsaturated arcs only; the
			// first free one ends the search
			for w, m := range fr.open[n*bw : n*bw+bw] {
				m &^= seenBin[w]
				if free := m & spareBin[w]; free != 0 {
					log = append(log, flowHop{node: nPos + w<<6 + bits.TrailingZeros64(free), prev: qi})
					goal = len(log) - 1
					break search
				}
				seenBin[w] |= m
				for ; m != 0; m &= m - 1 {
					log = append(log, flowHop{node: nPos + w<<6 + bits.TrailingZeros64(m), prev: qi})
				}
			}
		} else {
			// bin → positions that can withdraw flow from it
			bi := n - nPos
			for w, m := range fr.into[bi*pw : bi*pw+pw] {
				m &^= seenPos[w]
				seenPos[w] |= m
				for ; m != 0; m &= m - 1 {
					log = append(log, flowHop{node: w<<6 + bits.TrailingZeros64(m), prev: qi})
				}
			}
		}
	}
	fr.log = log // keep the grown buffer for the next call
	if goal < 0 {
		for _, hop := range log {
			if hop.node < nPos && !fr.blocked[hop.node] {
				fr.blocked[hop.node] = true
				if fr.rec {
					fr.undo = append(fr.undo, undoEntry{undoBlocked, int32(hop.node), 0})
				}
				if fr.left[hop.node] > 0 {
					fr.pending--
				}
			}
		}
		return 0
	}

	// Bottleneck: min over residual capacities along the path — terminal bin
	// spare, backward-arc flows, and forward-arc slot capacities. The path
	// is walked back from the free bin over the log's prev links; every
	// capacity on it is positive, so the min does not depend on the order.
	bottleneck := want
	lastBin := log[goal].node - nPos
	if spare := binCap[lastBin] - binUsed[lastBin]; spare < bottleneck {
		bottleneck = spare
	}
	for idx := goal; log[idx].prev >= 0; idx = log[idx].prev {
		a, b := log[log[idx].prev].node, log[idx].node
		if a < nPos { // forward arc position a → bin b
			k := fr.arc[a*nBin+b-nPos]
			if spare := capAt[k] - flow[k]; spare < bottleneck {
				bottleneck = spare
			}
		} else if k := fr.arc[b*nBin+a-nPos]; flow[k] < bottleneck { // backward arc bin a → position b
			bottleneck = flow[k]
		}
	}
	if bottleneck <= flowEps {
		return 0
	}

	// Apply: forward arcs position→bin add flow; backward bin→position
	// remove it. Bin usage changes only at the terminal bin. The path's arcs
	// are distinct, so the order they change in does not matter.
	for idx := goal; log[idx].prev >= 0; idx = log[idx].prev {
		a, b := log[log[idx].prev].node, log[idx].node
		if a < nPos {
			k := fr.arc[a*nBin+b-nPos]
			if fr.rec {
				fr.undo = append(fr.undo, undoEntry{undoFlow, int32(k), flow[k]})
			}
			flow[k] += bottleneck
			fr.arcMoved(a, b-nPos, k)
		} else {
			k := fr.arc[b*nBin+a-nPos]
			if fr.rec {
				fr.undo = append(fr.undo, undoEntry{undoFlow, int32(k), flow[k]})
			}
			flow[k] -= bottleneck
			fr.arcMoved(b, a-nPos, k)
		}
	}
	if fr.rec {
		fr.undo = append(fr.undo, undoEntry{undoBinUsed, int32(lastBin), binUsed[lastBin]})
	}
	binUsed[lastBin] += bottleneck
	setBit(spareBin, lastBin, binCap[lastBin]-binUsed[lastBin] > flowEps)
	return bottleneck
}

// arcMoved brings the mask bits of arc k, position i → bin bi, in step with
// its flow after the flow changed.
func (fr *flowRelax) arcMoved(i, bi, k int) {
	setBit(fr.open[i*fr.binWords:], bi, fr.capAt[k]-fr.flowAt[k] > flowEps)
	setBit(fr.into[bi*fr.posWords:], i, fr.flowAt[k] > flowEps)
}
