package core

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// packBudget bounds the packing oracle's search nodes per call.
const packBudget = 60000

// packIncumbentBudget is the cheaper budget used for opportunistic incumbent
// attempts at fractional nodes (a miss there costs nothing but a weaker warm
// start).
const packIncumbentBudget = 8000

// packCountsIn decides whether counts (n_i secondary instances of each chain
// position) can be packed integrally into the instance's bins without
// exceeding the residual snapshot, and returns one such packing.
//
// Returns:
//
//	perBin != nil              — packable; perBin is a witness.
//	perBin == nil, conclusive  — provably unpackable.
//	perBin == nil, !conclusive — search budget exhausted: nothing is known.
//	                             countBB excludes the vector as if it were
//	                             unpackable and clears Proven.
//
// A best-fit greedy pass over positions in decreasing demand order runs
// first and usually succeeds without any search. A query it does not settle
// goes to the refutation stage (refute.go) and the search, in the order
// packer.pack gives: the stage proves unpackable, without a search node,
// most of the vectors the search would refute or run dry on.
//
// The search is depth-first over positions most-constrained-first (one- and
// two-bin positions first, then decreasing demand; see sortForSearch) with
// three prunes: per-position slot counting (a position whose remaining items
// outnumber its bins' remaining slots fails immediately), capacity bounds on
// every suffix of the remaining positions (see capacityFits) and
// same-position symmetry breaking (items of one position are placed in
// non-decreasing bin order).
//
// This is the hottest loop of the exact solver, so the inner state is flat:
// placement counts live in per-position slices indexed by bin slot
// (converted to the map witness only on success), the failure cache is an
// open-addressing table keyed by (position, quantized residual vector)
// without any per-probe allocation, and the quantized residuals are
// maintained incrementally as items are placed and removed.
//
// The failure table is the caller's, so a caller issuing many packing
// queries over changing instances reuses one table's probe array and key
// arena instead of reallocating them per query (the table is
// generation-reset, not cleared). Membership semantics — and hence every
// search decision — are identical to a fresh table.
func packCountsIn(inst *Instance, counts []int, budget int, failed *failTable) (perBin [][]int, conclusive bool) {
	return newPacker(inst, failed).pack(counts, budget)
}

// packer is the pack oracle bound to one instance: everything a query needs
// that does not depend on the count vector is built once, and the per-query
// state lives in slices the next query overwrites, so a branch-and-bound
// issuing thousands of queries allocates per query only the witness it
// returns. Every query's search — visit order, node accounting, outcome —
// is the one a freshly built packer would run.
type packer struct {
	inst   *Instance
	failed *failTable
	// bins[i] is position i's candidate bin list reordered tightest-first
	// (ascending initial residual, ties in original order): the DFS refutes
	// doomed assignments sooner and spends loose bins last, which is what
	// lets hard queries conclude within budget.
	bins   [][]int
	binPos []int // bin node id -> index in quant
	demand []float64
	// binMask[i] has bit binPos[u]%64 set for every bin u of position i: two
	// positions whose masks do not meet share no bin.
	binMask []uint64
	// quant0/mix0/rh0 are the failure-cache key of the untouched residual
	// snapshot (see quant below), copied in at the start of each search.
	quant0 []int64
	mix0   []uint64
	rh0    uint64

	// Per-query state.
	counts []int
	// order is the positions with counts > 0: by decreasing demand for the
	// greedy pass, re-sorted for the search by sortForSearch.
	order    []int
	residual []float64
	cnt      [][]int // cnt[i][b]: items of position i placed into bins[i][b]
	// capBins[capStart[k+1]:capStart[k]] are the steps the bins' smallest
	// listing demand takes when the suffix order[k+1:] grows to order[k:]
	// (see capacityFits). needMHz[k] and needItems[k] are the suffix
	// order[k:]'s demand and item count. minOf is scratch.
	capBins   []capBin
	capStart  []int
	needMHz   []float64
	needItems []int
	minOf     []float64
	// A failure-cache state is the position index (quant[0]) plus every
	// bin's residual quantized at 1/64-MHz resolution; quant mirrors
	// residual incrementally so probing never rebuilds the vector, mix[q]
	// is mixSlot(q, quant[q]) and rh the XOR of mix[1:].
	quant     []int64
	mix       []uint64
	rh        uint64
	budget    int
	nodes     int
	exhausted bool
	// drift marks (as in binMask) the bins whose residual came back from a
	// take-and-return an ulp off since the innermost running placePos
	// finished its slot prune.
	drift uint64

	// searched, when set, sees every query the greedy pass does not settle
	// before the oracle works on it (tests use it to collect the hard
	// queries of a search).
	searched func(counts []int, budget int)

	// rf is the refutation stage, built with the search state; byStage
	// reports that it settled the last query.
	rf      *refuter
	byStage bool
}

// newPacker binds the oracle to inst. failed is the failure table its
// searches use; nil makes one on the first search.
func newPacker(inst *Instance, failed *failTable) *packer {
	pk := &packer{
		inst:     inst,
		failed:   failed,
		bins:     make([][]int, len(inst.Positions)),
		order:    make([]int, 0, len(inst.Positions)),
		residual: make([]float64, len(inst.Residual)),
		cnt:      make([][]int, len(inst.Positions)),
	}
	nb := 0
	for i := range inst.Positions {
		nb += len(inst.Positions[i].Bins)
	}
	flat := make([]int, 2*nb) // every position's sorted bins, then its counters
	for i := range inst.Positions {
		n := len(inst.Positions[i].Bins)
		sorted := flat[:n:n]
		copy(sorted, inst.Positions[i].Bins)
		for a := 1; a < len(sorted); a++ { // stable insertion sort
			for b := a; b > 0 && inst.Residual[sorted[b]] < inst.Residual[sorted[b-1]]; b-- {
				sorted[b], sorted[b-1] = sorted[b-1], sorted[b]
			}
		}
		pk.bins[i] = sorted
		pk.cnt[i] = flat[n : 2*n : 2*n]
		flat = flat[2*n:]
	}
	return pk
}

// initSearch builds what only the DFS reads, on the first query the greedy
// pass does not settle (on roomy instances none ever does), and the failure
// table when the packer was given none.
func (pk *packer) initSearch() {
	inst, nBins := pk.inst, len(pk.inst.BinSet)
	if pk.failed == nil {
		pk.failed = getFailTable(1 + nBins)
	}
	pk.binPos = make([]int, len(inst.Residual))
	pk.demand = make([]float64, len(inst.Positions))
	pk.binMask = make([]uint64, len(inst.Positions))
	pk.capBins = make([]capBin, 0, nBins)
	pk.capStart = make([]int, len(inst.Positions)+1)
	pk.needMHz = make([]float64, len(inst.Positions))
	pk.needItems = make([]int, len(inst.Positions))
	pk.minOf = make([]float64, 1+nBins)
	pk.quant0, pk.quant = make([]int64, 1+nBins), make([]int64, 1+nBins)
	pk.mix0, pk.mix = make([]uint64, 1+nBins), make([]uint64, 1+nBins)
	for k, u := range inst.BinSet {
		pk.binPos[u] = 1 + k
		pk.quant0[1+k] = quantize(inst.Residual[u])
		pk.mix0[1+k] = mixSlot(1+k, pk.quant0[1+k])
		pk.rh0 ^= pk.mix0[1+k]
	}
	for i, sorted := range pk.bins {
		pk.demand[i] = inst.Positions[i].Func.Demand
		for _, u := range sorted {
			pk.binMask[i] |= 1 << (pk.binPos[u] % 64)
		}
	}
	pk.rf = newRefuter(inst, pk.demand)
}

// pack answers one query (see packCountsIn): the greedy pass, and then, for a
// query it does not settle,
//
//  1. dominance: a vector at least as large everywhere as a recently refuted
//     one is unpackable;
//  2. when the stage settled the last query, its recent certificates;
//  3. a search of packShortBudget nodes, whose witness, if it finds one, is
//     the one the full search would find first;
//  4. the certificates, then subgradient steps for new multipliers, while
//     the stage's record pays (refuter.wants);
//  5. the search at budget, from the start.
//
// A query the stage's record does not pay for skips 3 and 4 and goes
// straight to the search. The stage refutes only vectors no packing exists
// for, so a query ends with the search's own answer, or with a refutation
// where the search would have run dry.
func (pk *packer) pack(counts []int, budget int) (perBin [][]int, conclusive bool) {
	pk.setQuery(counts, budget)
	pk.byStage = false
	if perBin = pk.greedy(); perBin != nil {
		return perBin, true
	}
	if pk.searched != nil {
		pk.searched(counts, budget)
	}
	if pk.quant == nil {
		pk.initSearch()
	}
	rf := pk.rf
	rf.begin()
	switch {
	case rf.dominated(counts), rf.hot && rf.certified(counts):
		pk.byStage = true
	case !rf.wants():
		perBin, conclusive = pk.search()
		rf.tally(pk.nodes)
	default:
		pk.budget = min(budget, packShortBudget)
		if perBin, conclusive = pk.search(); perBin != nil || conclusive {
			break
		}
		if rf.certified(counts) || rf.lagrange(counts) {
			pk.byStage = true
		} else if budget > pk.budget {
			pk.budget = budget
			perBin, conclusive = pk.search()
			rf.tally(pk.nodes)
		}
	}
	conclusive = conclusive || pk.byStage
	rf.hot = pk.byStage
	if perBin == nil && conclusive {
		rf.remember(counts)
	}
	return perBin, conclusive
}

// packShortBudget is the search budget a query gets before the refutation
// stage runs. On Fig. 1 length 12 trial 58, whose queries the search refutes
// cheaply, it settles 457 of the 483 queries it runs on; on length 18 trial
// 32 it settles none of 32, for 10 k of the trial's 211 k search nodes.
const packShortBudget = 300

// greedy answers the query set by setQuery by the greedy best-fit pass alone:
// a witness, or nil when the pass does not pack the counts.
func (pk *packer) greedy() [][]int {
	copy(pk.residual, pk.inst.Residual)
	if greedyPack(pk.inst, pk.counts, pk.order, pk.bins, pk.residual, pk.cnt) {
		return countsToPerBin(pk.inst, pk.bins, pk.cnt)
	}
	return nil
}

// setQuery starts a query: the count vector, the budget, the positions to
// place by decreasing demand, and no item placed.
func (pk *packer) setQuery(counts []int, budget int) {
	inst := pk.inst
	pk.counts, pk.budget = counts, budget
	pk.order = pk.order[:0]
	for i := range inst.Positions {
		clearInts(pk.cnt[i])
		if counts[i] > 0 {
			pk.order = append(pk.order, i)
		}
	}
	order := pk.order
	sort.Slice(order, func(a, b int) bool {
		return inst.Positions[order[a]].Func.Demand > inst.Positions[order[b]].Func.Demand
	})
}

// search answers the query set by setQuery by depth-first search alone.
func (pk *packer) search() (perBin [][]int, conclusive bool) {
	inst := pk.inst
	copy(pk.residual, inst.Residual)
	for _, i := range pk.order {
		clearInts(pk.cnt[i]) // what a failed greedy pass left
	}

	// The failure table caches residual states (at position boundaries)
	// from which no completion exists, collapsing the exponential
	// re-exploration that different same-total allocations of earlier
	// positions would cause.
	if pk.quant == nil {
		pk.initSearch()
	}
	pk.sortForSearch()
	pk.prepareCapacity()
	pk.failed.reset(len(pk.quant))
	copy(pk.quant, pk.quant0)
	copy(pk.mix, pk.mix0)
	pk.rh = pk.rh0
	pk.nodes, pk.exhausted, pk.drift = 0, false, 0
	if pk.placePos(0, ^uint64(0)) {
		return countsToPerBin(inst, pk.bins, pk.cnt), true
	}
	return nil, !pk.exhausted
}

// placePos places every item of order[oi:], position by position. touched
// marks (as in binMask) the bins the position before took capacity from.
func (pk *packer) placePos(oi int, touched uint64) bool {
	if oi == len(pk.order) {
		return true
	}
	quant, residual := pk.quant, pk.residual
	quant[0] = int64(oi)
	h := pk.rh ^ mixSlot(0, quant[0])
	if pk.failed.has(h, quant) {
		return false
	}
	// Slot prune: a later position whose bins' remaining slots cannot hold
	// its items dooms this state. The boundary before this one passed the
	// same check on the same residuals but for the bins the position just
	// placed took from and the bins that drifted since, so only positions
	// with one of those bins are recounted. Only the slots < counts[j]
	// outcome matters: counting starts at the loosest bin and stops the
	// moment the position is covered.
	touched |= pk.drift
	recheck := oi == 0
	for _, j := range pk.order[oi:] {
		if pk.binMask[j]&touched == 0 {
			continue
		}
		recheck = true
		slots, need, d := 0, pk.counts[j], pk.demand[j]
		pBins := pk.bins[j]
		for b := len(pBins) - 1; b >= 0 && slots < need; b-- {
			if r := residual[pBins[b]]; r >= d {
				slots += int(r / d)
			}
		}
		if slots < need {
			pk.failed.insert(h, quant)
			return false
		}
	}
	// Capacity prune, skipped on the same grounds: a suffix none of whose
	// positions owns a changed bin passed at the boundary before. The root
	// has no boundary before it, so it checks every suffix (binless
	// positions included). A refuted state is not cached: recomputing the
	// bound costs about what a probe does, while caching every refutation
	// grows the table every boundary probes, which on trees whose queries
	// still run dry costs more than the recomputation saves.
	if recheck && !pk.capacityFits(oi) {
		return false
	}
	i := pk.order[oi]
	outer := pk.drift
	pk.drift = 0
	ok := pk.placeItem(oi, i, pk.demand[i], pk.counts[i], 0, 0)
	pk.drift |= outer
	if !ok && !pk.exhausted {
		// placeItem restored residual (and quant) to the entry state on
		// every failing path, so the entry key is still current — but
		// quant[0] was clobbered by deeper placePos calls.
		quant[0] = int64(oi)
		pk.failed.insert(h, quant)
	}
	return ok
}

// fewBins is the bin count from which sortForSearch stops telling
// positions apart by their bins.
const fewBins = 3

// sortForSearch orders the query's positions most-constrained-first:
// positions that list one or two bins first, fewest bins first, then by
// decreasing demand, then by position index. A position with one or two bins
// has few ways to be placed, so placing it early refutes doomed states near
// the root. Past that the bin count says little (at hop bound l >= 2 nearly
// every position lists most bins), and decreasing demand refutes sooner. The
// greedy pass keeps the plain decreasing-demand order setQuery builds.
func (pk *packer) sortForSearch() {
	order, bins, demand := pk.order, pk.bins, pk.demand
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if bi, bj := min(len(bins[i]), fewBins), min(len(bins[j]), fewBins); bi != bj {
			return bi < bj
		}
		if demand[i] != demand[j] {
			return demand[i] > demand[j]
		}
		return i < j
	})
}

// capBin is one step of a bin's smallest listing demand as the capacity
// bound's suffix grows: bin u's smallest demand among the suffix's positions
// that list it falls from prev (+Inf when no later position lists u) to d.
type capBin struct {
	u             int
	d, inv        float64
	prev, prevInv float64
}

// prepareCapacity builds the query's capacity-bound tables: the suffix
// demand sums, and for each suffix order[k:] the bins whose smallest listing
// demand order[k] lowers, with the old and the new minimum.
func (pk *packer) prepareCapacity() {
	n := len(pk.order)
	minOf, start := pk.minOf, pk.capStart[:n+1]
	for q := range minOf {
		minOf[q] = math.Inf(1)
	}
	pk.capBins = pk.capBins[:0]
	start[n] = 0
	mhz, items := 0.0, 0
	for k := n - 1; k >= 0; k-- {
		j := pk.order[k]
		d := pk.demand[j]
		mhz += float64(pk.counts[j]) * d
		items += pk.counts[j]
		pk.needMHz[k], pk.needItems[k] = mhz, items
		for _, u := range pk.bins[j] {
			q := pk.binPos[u]
			if prev := minOf[q]; d < prev {
				pk.capBins = append(pk.capBins, capBin{u: u, d: d, inv: 1 / d, prev: prev, prevInv: 1 / prev})
				minOf[q] = d
			}
		}
		start[k] = len(pk.capBins)
	}
}

// capacityFits reports whether every suffix S = order[k:], k >= oi, of the
// positions still to place passes two capacity bounds. A bin u fits S when
// some position of S lists it and has demand d_j <= r_u; let m_u be the
// smallest such demand. Then any completion satisfies
//
//	Σ_{j∈S} n_j·d_j <= Σ_{u fits S} r_u         (MHz)
//	Σ_{j∈S} n_j     <= Σ_{u fits S} ⌊r_u/m_u⌋   (items)
//
// because bin u holds only items of positions that list it, each at least
// m_u MHz, and at most r_u MHz in total (residuals only fall below this
// boundary, so a position that does not fit u now never will). A failed bound
// refutes the state without a search node.
//
// The smallest listing demand of S fits u if any listing demand does, and it
// is m_u. The walk runs backwards from the last position, so S only grows
// and m_u only falls: each step prepareCapacity recorded swaps a bin's
// contribution at the old minimum for its contribution at the new one (a
// bin joins the MHz sum the first time its minimum fits). Under decreasing
// demand every bin has one step, at its last listing position. Both bounds
// round the DFS's way or looser, never tighter: the MHz bound leaves a 1e-9
// relative margin and the per-bin slot count a 1e-9 upward guard, so an
// exact multiple that divides an ulp short is not refused.
func (pk *packer) capacityFits(oi int) bool {
	residual, start := pk.residual, pk.capStart
	capMHz, capItems := 0.0, 0
	for k := len(pk.order) - 1; k >= oi; k-- {
		for _, b := range pk.capBins[start[k+1]:start[k]] {
			r := residual[b.u]
			switch {
			case r < b.d:
				// Neither minimum fits: the old one is larger.
			case r >= b.prev:
				capItems += int(r*b.inv+1e-9) - int(r*b.prevInv+1e-9)
			default:
				capMHz += r
				capItems += int(r*b.inv + 1e-9)
			}
		}
		if pk.needItems[k] > capItems || pk.needMHz[k] > capMHz+1e-9*capMHz {
			return false
		}
	}
	return true
}

// placeItem places the last left items of position i = order[oi] (demand
// each) into bins[i][minBin:], then moves on to the next position; used marks
// the bins its earlier items went to.
func (pk *packer) placeItem(oi, i int, demand float64, left, minBin int, used uint64) bool {
	pk.nodes++
	if pk.nodes > pk.budget {
		pk.exhausted = true
		return false
	}
	if left == 0 {
		return pk.placePos(oi+1, used)
	}
	residual, quant, mix := pk.residual, pk.quant, pk.mix
	pBins, cnt := pk.bins[i], pk.cnt[i]
	for b := minBin; b < len(pBins); b++ {
		u := pBins[b]
		if residual[u] < demand {
			continue
		}
		was := residual[u]
		residual[u] = was - demand
		q := pk.binPos[u]
		wasQuant, wasMix := quant[q], mix[q]
		quant[q] = quantize(residual[u])
		mix[q] = mixSlot(q, quant[q])
		pk.rh ^= wasMix ^ mix[q]
		cnt[b]++
		if pk.placeItem(oi, i, demand, left-1, b, used|1<<(q%64)) {
			return true
		}
		residual[u] += demand
		pk.rh ^= mix[q]
		// Adding the demand back can land an ulp away from the residual it
		// was taken from; only an exact return restores the slot's key.
		if residual[u] == was {
			quant[q], mix[q] = wasQuant, wasMix
		} else {
			pk.drift |= 1 << (q % 64)
			quant[q] = quantize(residual[u])
			mix[q] = mixSlot(q, quant[q])
		}
		pk.rh ^= mix[q]
		cnt[b]--
		if pk.exhausted {
			// Unwind without exploring alternatives.
			return false
		}
	}
	return false
}

// quantize maps a residual capacity to the cache's 1/64-MHz grid.
func quantize(r float64) int64 { return int64(r*64 + 0.5) }

// countsToPerBin converts flat slot counters (indexed by the tightest-first
// bin order in bins) into the dense per-position witness the pack oracle
// promises its callers, indexed as each position's Bins.
func countsToPerBin(inst *Instance, bins [][]int, cnt [][]int) [][]int {
	perBin, _ := emptyPerBin(inst)
	for i := range perBin {
		for b, c := range cnt[i] {
			if c > 0 {
				k, _ := slices.BinarySearch(inst.Positions[i].Bins, bins[i][b])
				perBin[i][k] = c
			}
		}
	}
	return perBin
}

// greedyPack attempts a best-fit packing: positions by decreasing demand
// (the caller-provided order), each item into the allowed bin with the most
// residual capacity (ties broken by the tightest-first enumeration in bins).
// On success the placements are left in cnt and residual reflects them; on
// failure it reports false and the caller resets both.
func greedyPack(inst *Instance, counts []int, order []int, bins [][]int, residual []float64, cnt [][]int) bool {
	for _, i := range order {
		p := &inst.Positions[i]
		for item := 0; item < counts[i]; item++ {
			best := -1
			var bestRes float64
			for b, u := range bins[i] {
				if residual[u] >= p.Func.Demand && residual[u] > bestRes {
					best, bestRes = b, residual[u]
				}
			}
			if best < 0 {
				return false
			}
			residual[bins[i][best]] -= p.Func.Demand
			cnt[i][best]++
		}
	}
	return true
}

func clearInts(s []int) {
	for i := range s {
		s[i] = 0
	}
}

// mixSlot hashes one (slot, value) pair of a failure-cache key. Keys hash to
// the XOR of their slots' mixes, which placeItem maintains incrementally as
// residuals change instead of rehashing the whole vector at each position
// boundary. Collisions are harmless (the table compares full keys); the hash
// only spreads probes, and one multiply-fold spreads them as well as a full
// finalizer did (probe counts on the Fig. 1 trees agree within 0.5 %).
func mixSlot(k int, v int64) uint64 {
	x := (uint64(v) ^ uint64(k)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	return x ^ x>>32
}

// failChunkShift sizes the arena chunks: 1<<failChunkShift keys per chunk.
const failChunkShift = 11

// failProbe is one open-addressing slot: the cached key hash, the 1-based
// key index (0 = empty), and the generation that wrote it (a stale
// generation also reads as empty — see failTable.reset).
type failProbe struct {
	h   uint64
	idx int32
	gen int32
}

// failTable is an allocation-light set of fixed-length int64 keys: open
// addressing with linear probing, keys appended to fixed-size arena chunks
// so growth never copies existing keys. It replaces a map[string]bool whose
// per-insert string materialization and byte-wise rehashing dominated the
// pack oracle's profile.
type failTable struct {
	keyLen int
	chunks [][]int64
	probes []failProbe
	mask   uint64
	n      int
	gen    int32
}

// newFailTable returns an empty table of keyLen-word keys. Its probes are
// allocated by the first insert, so a search that files nothing pays for
// none.
func newFailTable(keyLen int) *failTable {
	return &failTable{keyLen: keyLen, gen: 1}
}

// failTables holds the tables of finished count searches (putFailTable), so
// the next search reuses their probes and key chunks instead of growing new
// ones, as internal/lp reuses its tableau.
var failTables = sync.Pool{New: func() any { return new(failTable) }}

// getFailTable returns an empty table of keyLen-word keys from failTables.
func getFailTable(keyLen int) *failTable {
	t := failTables.Get().(*failTable)
	t.reset(keyLen)
	return t
}

// putFailTable hands t back to failTables; nothing may use it afterwards.
// A table grown past maxPooledProbes is left to the collector instead: a
// pooled table stays live from one search to the next, so the one or two
// outsized searches of a sweep (32,768 probes, 512 KB, on Fig. 1 length 18
// trial 32) would otherwise hold their memory for the rest of the run.
func putFailTable(t *failTable) {
	if t != nil && len(t.probes) <= maxPooledProbes {
		failTables.Put(t)
	}
}

const maxPooledProbes = 1 << 13

// reset empties the table in O(#chunks) by bumping the generation: probes
// written by earlier generations read as empty slots, and the key arena is
// truncated in place (a chunk grows by append, so it serves any key
// length). Slot claiming always takes the first stale-or-empty slot, so
// live entries keep unbroken probe chains.
func (t *failTable) reset(keyLen int) {
	t.keyLen = keyLen
	for i := range t.chunks {
		t.chunks[i] = t.chunks[i][:0]
	}
	t.n = 0
	if t.gen++; t.gen == math.MaxInt32 {
		clear(t.probes)
		t.gen = 1
	}
}

func (t *failTable) keyAt(idx int32) []int64 {
	i := int(idx - 1)
	off := (i & (1<<failChunkShift - 1)) * t.keyLen
	return t.chunks[i>>failChunkShift][off : off+t.keyLen]
}

func (t *failTable) has(h uint64, key []int64) bool {
	if t.n == 0 {
		return false
	}
	for p := h & t.mask; ; p = (p + 1) & t.mask {
		pr := t.probes[p]
		if pr.idx == 0 || pr.gen != t.gen {
			return false
		}
		if pr.h != h {
			continue
		}
		stored := t.keyAt(pr.idx)
		match := true
		for k, q := range stored {
			if key[k] != q {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
}

func (t *failTable) insert(h uint64, key []int64) {
	if t.probes == nil {
		const initSlots = 128
		t.probes, t.mask = make([]failProbe, initSlots), initSlots-1
	}
	if uint64(t.n+1)*4 > uint64(len(t.probes))*3 {
		t.grow()
	}
	c := t.n >> failChunkShift
	if c == len(t.chunks) {
		// Logical chunk capacity is fixed (keyAt indexes by shift). The
		// first chunk starts small and doubles via append so the frequent
		// sparse searches don't pay for a full chunk up front; a search
		// dense enough to need a second chunk allocates full chunks.
		capKeys := 1 << failChunkShift
		if c == 0 {
			capKeys = 64
		}
		t.chunks = append(t.chunks, make([]int64, 0, t.keyLen*capKeys))
	}
	t.chunks[c] = append(t.chunks[c], key...)
	t.n++
	idx := int32(t.n)
	for p := h & t.mask; ; p = (p + 1) & t.mask {
		if pr := t.probes[p]; pr.idx == 0 || pr.gen != t.gen {
			t.probes[p] = failProbe{h: h, idx: idx, gen: t.gen}
			return
		}
	}
}

func (t *failTable) grow() {
	old := t.probes
	size := len(old) * 2
	t.probes = make([]failProbe, size)
	t.mask = uint64(size - 1)
	for _, pr := range old {
		if pr.idx == 0 || pr.gen != t.gen {
			continue
		}
		for q := pr.h & t.mask; ; q = (q + 1) & t.mask {
			if t.probes[q].idx == 0 {
				t.probes[q] = pr
				break
			}
		}
	}
}
