package core

import "slices"

// refuter is the pack oracle's refutation stage: it proves count vectors
// unpackable without searching, with one knapsack per bin (DESIGN.md §8,
// "The refutation stage").
//
// For multipliers λ_i >= 0 on positions, any packing y_{i,u} of the counts
// n gives
//
//	Σ_i λ_i·n_i = Σ_u Σ_i λ_i·y_{i,u} <= Σ_u K_u(λ)
//
// where K_u(λ) is bin u's bounded knapsack over the positions that list it:
// value λ_i, weight d_i, at most min(n_i, ⌊r_u/d_i⌋) copies, capacity r_u.
// So Σ_u K_u(λ) < Σ_i λ_i·n_i refutes n. This is the Lagrangian of the
// constraints n_i = Σ_u y_{i,u}, the per-bin knapsack relaxation that exact
// methods for min-cost GAP bound with (Ross & Soland 1975; Fisher, Jaikumar
// & Van Wassenhove 1986). K_u is solved exactly: an over-estimate would only
// refute less, but an under-estimate would refute packable vectors.
//
// The bound is never tighter than the depth-first search's own arithmetic,
// which fills a bin by sequential subtraction: every bin's capacity carries
// a relative margin of refuteMargin, and so does the comparison, which
// absorbs the rounding of the sums.
type refuter struct {
	inst   *Instance
	demand []float64 // by position
	// binPos[k] lists the positions that list bin BinSet[k], ascending.
	binPos [][]int

	// The query's knapsack items: bin k's are items[start[k]:start[k+1]],
	// kept sorted by decreasing density during an evaluation.
	items []knapItem
	start []int
	room  []float64 // bin k's residual with the margin
	// lo[k] and hi[k] bracket bin k's knapsack value during an evaluation.
	lo, hi []float64
	best   float64 // the knapsack's incumbent
	// lam is the multiplier vector being tried and g its subgradient
	// (Σ_u y_{i,u} − n_i at the knapsacks' optima), both by position.
	lam, g []float64
	// Per query: items built, certificates tried, and the closest one
	// (-1 for none), from which the subgradient starts.
	built, tried bool
	from         int

	// certs holds the multipliers of the last refutations, the one that
	// refuted last first; nCerts counts every one ever filed.
	certs  [][]float64
	nCerts int
	// refuted is a ring of the last refuteKeep refuted count vectors, L ints
	// each: a query at least as large in every position is unpackable.
	refuted  []int
	nRefuted int
	// hot reports that the stage settled the last query that reached the
	// search: the next query then tries the certificates first.
	hot bool

	// The stage's record (see wants): the queries the certificates or the
	// subgradient refuted, the knapsack nodes spent, and the full searches
	// and their nodes.
	hits, nodes           int
	searches, searchNodes int
}

// knapItem is one position's copies in one bin's knapsack.
type knapItem struct {
	pos       int
	max       int // min(n_pos, ⌊room/d⌋)
	d, v      float64
	dens      float64 // v/d
	cur, best int     // copies in the fill being built and in the best one
}

const (
	// refuteCerts is how many recent certificates a query tries before it
	// looks for its own multipliers.
	refuteCerts = 4
	// refuteKeep is how many recent refuted count vectors dominance checks.
	refuteKeep = 16
	// refuteSteps bounds the subgradient steps of one query.
	refuteSteps = 30
	// refuteWorth is how many knapsack nodes cost what one search node
	// does.
	refuteWorth = 2
	// refuteMargin is the relative slack on every bin's capacity and on the
	// refuting comparison.
	refuteMargin = 1e-9
)

func newRefuter(inst *Instance, demand []float64) *refuter {
	L, nBins := len(inst.Positions), len(inst.BinSet)
	rf := &refuter{
		inst:    inst,
		demand:  demand,
		binPos:  make([][]int, nBins),
		start:   make([]int, nBins+1),
		room:    make([]float64, nBins),
		lo:      make([]float64, nBins),
		hi:      make([]float64, nBins),
		lam:     make([]float64, L),
		g:       make([]float64, L),
		certs:   make([][]float64, refuteCerts),
		refuted: make([]int, refuteKeep*L),
	}
	for i, p := range inst.Positions {
		for _, u := range p.Bins {
			k, _ := slices.BinarySearch(inst.BinSet, u)
			rf.binPos[k] = append(rf.binPos[k], i)
		}
	}
	flat := make([]float64, refuteCerts*L)
	for c := range rf.certs {
		rf.certs[c] = flat[c*L : (c+1)*L : (c+1)*L]
	}
	return rf
}

// begin starts a query: its items are built on first use.
func (rf *refuter) begin() { rf.built, rf.tried, rf.from = false, false, -1 }

// dominated reports whether counts is at least one recently refuted vector
// in every position.
func (rf *refuter) dominated(counts []int) bool {
	L := len(counts)
	for r := range min(rf.nRefuted, refuteKeep) {
		m := rf.refuted[r*L : (r+1)*L]
		i := 0
		for i < L && counts[i] >= m[i] {
			i++
		}
		if i == L {
			return true
		}
	}
	return false
}

// remember files a refuted count vector for dominance.
func (rf *refuter) remember(counts []int) {
	L := len(counts)
	r := rf.nRefuted % refuteKeep
	copy(rf.refuted[r*L:(r+1)*L], counts)
	rf.nRefuted++
}

// wants reports whether the stage runs on a query the short search does not
// settle: while its record pays. It pays while its refutations, one more
// than it made, each worth the nodes a full search has cost on average, are
// worth at least the knapsack nodes it has spent, refuteWorth of which cost
// what one search node does. Until a full search has run there is no
// record, and the query goes to the search: a packer asked once, as on most
// served requests, pays nothing for the stage. A record that stops paying
// can pay again only as the searches it leaves to run grow dearer.
func (rf *refuter) wants() bool {
	return rf.searches > 0 && refuteWorth*(1+rf.hits)*rf.searchNodes >= rf.nodes*rf.searches
}

// tally records the nodes of a full search.
func (rf *refuter) tally(nodes int) {
	rf.searches++
	rf.searchNodes += nodes
}

// certified reports whether one of the recent certificates refutes counts,
// and keeps the closest one as the subgradient's start. It runs once per
// query.
func (rf *refuter) certified(counts []int) bool {
	if rf.tried {
		return false
	}
	rf.tried = true
	if rf.nCerts == 0 {
		return false
	}
	rf.build(counts)
	closest := 0.0
	for c := range min(rf.nCerts, refuteCerts) {
		lam := rf.certs[c]
		gap, rhs := rf.eval(counts, lam, false)
		if gap < 0 {
			rf.certs[0], rf.certs[c] = lam, rf.certs[0]
			rf.hits++
			return true
		}
		if rhs > 0 && (rf.from < 0 || gap/rhs < closest) {
			rf.from, closest = c, gap/rhs
		}
	}
	return false
}

// lagrange reports whether subgradient steps on the Lagrangian, from the
// closest certificate or else from λ = d, find multipliers that refute
// counts; refuting ones are filed as the newest certificate.
func (rf *refuter) lagrange(counts []int) bool {
	rf.build(counts)
	lam := rf.lam
	if rf.from >= 0 {
		copy(lam, rf.certs[rf.from])
	} else {
		clear(lam)
	}
	for i, c := range counts {
		if c > 0 && lam[i] == 0 {
			lam[i] = rf.demand[i]
		}
	}
	for step := 0; ; step++ {
		gap, rhs := rf.eval(counts, lam, true)
		if gap < 0 {
			rf.hits++
			last := rf.certs[refuteCerts-1]
			copy(rf.certs[1:], rf.certs[:refuteCerts-1])
			copy(last, lam)
			rf.certs[0] = last
			rf.nCerts++
			return true
		}
		norm := 0.0
		for _, g := range rf.g {
			norm += g * g
		}
		if step == refuteSteps || norm == 0 {
			return false
		}
		// Polyak's step, aimed at a bound 1 % below the right-hand side.
		t := (gap + 0.01*rhs) / norm
		for i := range lam {
			lam[i] = max(0, lam[i]-t*rf.g[i])
		}
	}
}

// build makes the query's knapsack items from the residual snapshot, once
// per query.
func (rf *refuter) build(counts []int) {
	if rf.built {
		return
	}
	rf.built = true
	rf.items = rf.items[:0]
	for k, u := range rf.inst.BinSet {
		rf.start[k] = len(rf.items)
		room := rf.inst.Residual[u] * (1 + refuteMargin)
		rf.room[k] = room
		for _, i := range rf.binPos[k] {
			if d := rf.demand[i]; counts[i] > 0 && d <= room {
				rf.items = append(rf.items, knapItem{pos: i, max: min(counts[i], int(room/d)), d: d})
			}
		}
	}
	rf.start[len(rf.room)] = len(rf.items)
}

// eval returns Σ_u K_u(lam) − (1 − refuteMargin)·Σ_i lam_i·n_i, negative
// when lam refutes the query, and Σ_i lam_i·n_i. Each bin is bracketed by
// its greedy fill and Dantzig's bound, and bins are then solved exactly,
// widest bracket first: all of them when full, else only until the sign is
// certain (the gap returned is then a bound of the same sign). full leaves
// in g the subgradient at the knapsacks' optima.
func (rf *refuter) eval(counts []int, lam []float64, full bool) (gap, rhs float64) {
	for i, c := range counts {
		rf.g[i] = -float64(c)
		rhs += lam[i] * float64(c)
	}
	need := rhs * (1 - refuteMargin)
	lo, hi := 0.0, 0.0
	for k := range rf.room {
		rf.lo[k], rf.hi[k] = rf.bracket(rf.items[rf.start[k]:rf.start[k+1]], rf.room[k], lam)
		lo += rf.lo[k]
		hi += rf.hi[k]
	}
	for full || lo < need && hi >= need {
		w, k := 0.0, -1
		for b := range rf.room {
			if d := rf.hi[b] - rf.lo[b]; d > w {
				w, k = d, b
			}
		}
		if k < 0 {
			break
		}
		rf.best = rf.lo[k]
		rf.fill(rf.items[rf.start[k]:rf.start[k+1]], 0, rf.room[k], 0)
		lo += rf.best - rf.lo[k]
		hi += rf.best - rf.hi[k]
		rf.lo[k], rf.hi[k] = rf.best, rf.best
	}
	for _, it := range rf.items {
		rf.g[it.pos] += float64(it.best)
	}
	if hi < need {
		return hi - need, rhs
	}
	return lo - need, rhs
}

// bracket sorts one bin's items by decreasing density under lam and returns
// the value of its greedy fill (each item's copies in that order, as many as
// fit; left in each item's best) and Dantzig's bound, between which the
// bin's knapsack value lies.
func (rf *refuter) bracket(items []knapItem, room float64, lam []float64) (lo, hi float64) {
	for a := range items {
		it := &items[a]
		it.v = lam[it.pos]
		it.dens, it.cur = it.v/it.d, 0
	}
	for a := 1; a < len(items); a++ {
		for b := a; b > 0 && items[b].dens > items[b-1].dens; b-- {
			items[b], items[b-1] = items[b-1], items[b]
		}
	}
	left, whole := room, true
	for a := range items {
		it := &items[a]
		t := min(it.max, int(left/it.d))
		it.best = t
		lo += float64(t) * it.v
		if whole {
			if t == it.max {
				hi += float64(t) * it.v
			} else {
				hi += left * it.dens
				whole = false
			}
		}
		left -= float64(t) * it.d
	}
	if whole {
		hi = lo // every copy fits
	}
	return lo, hi
}

// fill is the knapsack's depth-first branch and bound over items, sorted by
// density: items[k:] are still to decide, with room left and val taken so
// far. rf.best is the incumbent, and each improvement is copied to the
// items' best.
func (rf *refuter) fill(items []knapItem, k int, room, val float64) {
	rf.nodes++
	it := &items[k]
	if k == len(items)-1 {
		// The last item: as many copies as fit.
		if t := min(it.max, int(room/it.d)); val+float64(t)*it.v > rf.best {
			it.cur = t
			rf.best = val + float64(t)*it.v
			for j := range items {
				items[j].best = items[j].cur
			}
			it.cur = 0
		}
		return
	}
	for t := min(it.max, int(room/it.d)); t >= 0; t-- {
		// Dantzig's bound of the child, which only falls as t does: item k
		// is the densest left.
		r, ub := room-float64(t)*it.d, val+float64(t)*it.v
		for _, nx := range items[k+1:] {
			if w := float64(nx.max) * nx.d; w <= r {
				ub += float64(nx.max) * nx.v
				r -= w
			} else {
				ub += r * nx.dens
				break
			}
		}
		if ub <= rf.best {
			break
		}
		it.cur = t
		rf.fill(items, k+1, room-float64(t)*it.d, val+float64(t)*it.v)
	}
	it.cur = 0
}
