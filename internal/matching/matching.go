// Package matching implements minimum-cost maximum-cardinality bipartite
// matching, the engine of the paper's Algorithm 2 (the heuristic builds a
// bipartite graph per round — cloudlets × candidate secondary VNF instances —
// and commits a min-cost maximum matching each time).
//
// The implementation is the Hungarian algorithm in its Jonker-Volgenant
// shortest-augmenting-path form (O(n·m·log-free dense scan, overall O(n²m))),
// extended to rectangular instances with forbidden pairs: each left node gets
// a private virtual "stay unmatched" slot priced above any real matching-cost
// difference, which makes the perfect-on-left assignment equivalent to a
// lexicographic (max cardinality, then min cost) matching.
//
// # Two forms of one solver
//
// The edge form (MinCostMax, Matcher.Solve) takes any edge list and scans a
// dense left × (right + left) cost matrix. It is the reference, and the
// benchmark probe's target. The group form (Matcher.SolveGroups) is
// Algorithm 2's path: right nodes come in groups that share one adjacency
// and carry non-decreasing costs — one chain position's window of items,
// whose costs rise with k (Lemma 6.1) — and it returns exactly what the edge
// form returns on the expanded edge list (group, then item, then row order):
// the same MatchL, MatchR and Cardinality, and Cost to the bit.
//
// Why the group form may skip most of a group. A column's potential moves
// only while the column is on a shortest-path tree, and a free column that
// joins the tree ends that row's augmentation, matched for good: every
// unmatched column has potential 0. A group's unmatched items therefore get
// the reduced cost fl(c_k − u_r) from each tree row r, which is monotone in
// c_k, so their tentative distances stay non-decreasing in k, and the scan's
// argmin — the smallest (distance, column index) — never picks an item past
// the group's lowest unmatched one, its frontier. Items past the frontier
// only ever update their own distance, so leaving them out changes no
// selected column, no step and no potential; and a new frontier appears only
// when an augmentation ends, when every distance is reset anyway. Each step
// of the group form thus scans, per group adjacent to the new tree row, the
// group's matched prefix and its frontier, and keeps no dense matrix. The
// virtual-slot price is the sum of every edge cost plus 1, summed in the
// edge order above, so its bits — which feed every reduced cost — are the
// edge form's.
//
// Reuse contract: a Matcher is a workspace for a sequence of graphs solved
// one after another by one goroutine, in either form. Its buffers grow only
// when a graph is bigger than any it has seen, so a caller running many
// rounds (Algorithm 2 runs one per matching round) allocates once per call
// instead of once per round. The *Result a Matcher returns — MatchL and
// MatchR included — is owned by the Matcher and valid only until its next
// solve; copy what must outlive that. MinCostMax solves on a fresh Matcher,
// so its Result is the caller's to keep. Reuse never changes an answer:
// every solve resets every buffer it reads, and a reused Matcher returns
// exactly what a fresh one does.
package matching

import (
	"fmt"
	"math"
)

// Edge is an allowed pair between left node L and right node R with a
// nonnegative cost. Pairs not listed are forbidden.
type Edge struct {
	L, R int
	Cost float64
}

// Group is a block of right nodes that share one adjacency: each of its
// items may be matched to every left node in Rows and to no other. Items are
// numbered consecutively, group after group, so group g's item k is right
// node Σ_{h<g} len(Costs_h) + k. Costs must be nonnegative, finite and
// non-decreasing, and Rows distinct; a group with no Rows (or no Costs) has
// no edges, and neither is checked.
type Group struct {
	Rows  []int
	Costs []float64
}

// Result of a matching run.
type Result struct {
	// MatchL[l] is the right node matched to left node l, or -1.
	MatchL []int
	// MatchR[r] is the left node matched to right node r, or -1.
	MatchR []int
	// Cost is the total cost of the matched (real) edges.
	Cost float64
	// Cardinality is the number of matched pairs.
	Cardinality int
}

// MinCostMax computes a maximum-cardinality matching of minimum total cost in
// the bipartite graph with nL left nodes, nR right nodes, and the given
// allowed edges. Edge costs must be nonnegative and finite; duplicate (L,R)
// pairs keep the cheapest cost.
func MinCostMax(nL, nR int, edges []Edge) *Result {
	return new(Matcher).Solve(nL, nR, edges)
}

// Matcher is a reusable MinCostMax workspace (see the package doc's reuse
// contract). The zero value is ready to use; it is not safe for concurrent
// use.
type Matcher struct {
	u         []float64 // row potentials
	res       Result
	matchBack []int // backing store for res.MatchL and res.MatchR

	// Edge form only.
	a      []float64 // nL × (nR+nL) cost matrix, row-major
	v      []float64 // column potentials
	minv   []float64 // per-row shortest reduced cost to each column
	p, way []int     // column → row matched; predecessor column on the path
	used   []bool    // columns already on the current row's tree

	// Group form only. Columns are 1-indexed as in the edge form's loop, and
	// one array holds all of a column's state, so a column touched costs one
	// bounds check and one cache line (the edge form's separate arrays
	// measured slower here).
	// rowSpans[rowStart[l]:rowStart[l+1]] index the spans left node l
	// reaches: spans[g] for each adjacent group g, then its virtual slot's.
	cols               []column
	spans              []span
	rowStart, rowSpans []int
	colSpan            []int // colSpan[j]: the group of item column j
	seen               []int // seen[l]: last group that listed left node l, plus 1
	active             []int // off-tree columns with a finite minv, any order
	tree               []int // columns on the current row's tree
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// result resets the Matcher's Result to an empty matching of nL × nR.
func (m *Matcher) result(nL, nR int) *Result {
	m.matchBack = grow(m.matchBack, nL+nR)
	for i := range m.matchBack {
		m.matchBack[i] = -1
	}
	m.res = Result{MatchL: m.matchBack[:nL:nL], MatchR: m.matchBack[nL:]}
	return &m.res
}

// Solve is MinCostMax on the Matcher's buffers. The returned Result belongs
// to the Matcher and is overwritten by the next solve.
func (m *Matcher) Solve(nL, nR int, edges []Edge) *Result {
	if nL < 0 || nR < 0 {
		panic(fmt.Sprintf("matching: negative side sizes %d,%d", nL, nR))
	}
	res := m.result(nL, nR)
	if nL == 0 || nR == 0 || len(edges) == 0 {
		return res
	}

	inf := math.Inf(1)
	// Dense cost matrix with a virtual column per row. Column layout:
	// [0, nR) real right nodes, [nR, nR+nL) virtual unmatched slots.
	nC := nR + nL
	a := grow(m.a, nL*nC)
	m.a = a
	for i := range a {
		a[i] = inf
	}
	sum := 0.0
	for _, e := range edges {
		if e.L < 0 || e.L >= nL || e.R < 0 || e.R >= nR {
			panic(fmt.Sprintf("matching: edge (%d,%d) out of range %dx%d", e.L, e.R, nL, nR))
		}
		if e.Cost < 0 || math.IsInf(e.Cost, 0) || math.IsNaN(e.Cost) {
			panic(fmt.Sprintf("matching: edge (%d,%d) has invalid cost %v", e.L, e.R, e.Cost))
		}
		if c := &a[e.L*nC+e.R]; e.Cost < *c {
			if !math.IsInf(*c, 1) {
				sum -= *c // replacing a previous duplicate
			}
			*c = e.Cost
			sum += e.Cost
		}
	}
	w := sum + 1 // virtual-slot price: dominates any real cost difference
	for i := 0; i < nL; i++ {
		a[i*nC+nR+i] = w
	}

	// Jonker-Volgenant row-by-row shortest augmenting paths with potentials.
	// 1-indexed sentinel formulation; column 0 is the artificial start.
	u := grow(m.u, nL+1)
	v := grow(m.v, nC+1)
	p := grow(m.p, nC+1)     // p[j]: row matched to column j (0 = none)
	way := grow(m.way, nC+1) // predecessor column on the alternating path
	minv := grow(m.minv, nC+1)
	used := grow(m.used, nC+1)
	m.u, m.v, m.p, m.way, m.minv, m.used = u, v, p, way, minv, used
	clear(u)
	clear(v)
	clear(p)
	clear(way)
	for i := 1; i <= nL; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
		}
		clear(used)
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			row := a[(i0-1)*nC : i0*nC]
			for j := 1; j <= nC; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 < 0 || math.IsInf(delta, 1) {
				// Unreachable: cannot happen because the virtual slot always
				// provides a finite column, but guard against misuse.
				panic("matching: no augmenting path despite virtual slots")
			}
			for j := 0; j <= nC; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	for j := 1; j <= nR; j++ { // only real columns count
		if p[j] != 0 {
			l := p[j] - 1
			r := j - 1
			res.MatchL[l] = r
			res.MatchR[r] = l
			res.Cost += a[l*nC+r]
			res.Cardinality++
		}
	}
	return res
}

// SolveGroups is MinCostMax on the graph whose right nodes are the groups'
// items (see Group): it returns exactly what Solve returns on that graph's
// edge list expanded group by group, item by item, row by row — the same
// MatchL, MatchR, Cardinality, and Cost to the bit — while scanning only each
// group's matched prefix and frontier (see the package doc). It panics on a
// row out of [0, nL), a repeated row, a negative or non-finite cost, or a
// decreasing group. The returned Result belongs to the Matcher and is
// overwritten by the next solve.
func (m *Matcher) SolveGroups(nL int, groups []Group) *Result {
	if nL < 0 {
		panic(fmt.Sprintf("matching: negative left size %d", nL))
	}
	nR := 0
	for _, g := range groups {
		nR += len(g.Costs)
	}
	res := m.result(nL, nR)

	// Validate, lay every item's cost out by column, count each row's spans,
	// and price the virtual slots with the edge form's sum over the expanded
	// edges in its order.
	nC := nR + nL
	m.cols = grow(m.cols, nC+1)
	m.spans = grow(m.spans, len(groups)+nL)
	m.colSpan = grow(m.colSpan, nR+1)
	m.rowStart = grow(m.rowStart, nL+1)
	m.seen = grow(m.seen, nL)
	clear(m.rowStart)
	clear(m.seen)
	inf := math.Inf(1)
	cols, spans := m.cols, m.spans
	sum, edges, col := 0.0, 0, 1
	for gi, g := range groups {
		spans[gi] = span{lo: col, end: min(col+1, col+len(g.Costs)), hi: col + len(g.Costs)}
		for k, c := range g.Costs {
			cols[col+k] = column{cost: c, minv: inf}
			m.colSpan[col+k] = gi
		}
		col += len(g.Costs)
		if len(g.Rows) == 0 || len(g.Costs) == 0 {
			continue
		}
		for _, l := range g.Rows {
			if l < 0 || l >= nL {
				panic(fmt.Sprintf("matching: group %d row %d out of range [0,%d)", gi, l, nL))
			}
			if m.seen[l] == gi+1 {
				panic(fmt.Sprintf("matching: group %d lists row %d twice", gi, l))
			}
			m.seen[l] = gi + 1
			m.rowStart[l+1]++
		}
		prev := 0.0
		for k, c := range g.Costs {
			if c < 0 || math.IsInf(c, 0) || math.IsNaN(c) {
				panic(fmt.Sprintf("matching: group %d item %d has invalid cost %v", gi, k, c))
			}
			if c < prev {
				panic(fmt.Sprintf("matching: group %d costs decrease at item %d (%v after %v)", gi, k, c, prev))
			}
			prev = c
			for range g.Rows {
				sum += c
			}
		}
		edges += len(g.Rows) * len(g.Costs)
	}
	if nL == 0 || nR == 0 || edges == 0 {
		return res
	}
	w := sum + 1 // virtual-slot price, bit for bit the edge form's

	// Row l's spans: its adjacent groups in group order, then its virtual
	// slot, a one-column span of its own.
	for l := 0; l < nL; l++ {
		spans[len(groups)+l] = span{lo: nR + l + 1, end: nR + l + 2, hi: nR + l + 2}
		cols[nR+l+1] = column{cost: w, minv: inf}
		m.rowStart[l+1] += m.rowStart[l] + 1
	}
	m.rowSpans = grow(m.rowSpans, m.rowStart[nL])
	rowStart, rowSpans := m.rowStart, m.rowSpans
	fill := m.seen // reused as each row's fill cursor
	copy(fill, rowStart[:nL])
	for gi, g := range groups {
		if len(g.Costs) == 0 {
			continue
		}
		for _, l := range g.Rows {
			rowSpans[fill[l]] = gi
			fill[l]++
		}
	}
	for l := 0; l < nL; l++ {
		rowSpans[fill[l]] = len(groups) + l
	}

	// Jonker-Volgenant as in Solve, with the same arithmetic on the columns
	// it touches. A tree column's distance is -Inf, so no relaxation can
	// lower it; and the pass that lowers every active distance by delta also
	// finds the next step's argmin, which the relaxation then only has to
	// beat (it only lowers distances).
	m.u = grow(m.u, nL+1)
	u := m.u
	clear(u)
	cols[0] = column{minv: inf}
	active, tree := m.active[:0], m.tree[:0]
	for i := 1; i <= nL; i++ {
		cols[0].p = i
		j0 := 0
		tree = append(tree[:0], 0)
		j1, delta := -1, inf // smallest (distance, column) so far
		for {
			// Relax the columns row i0 reaches: each adjacent group's matched
			// prefix and frontier, and its virtual slot. A column joins
			// active on its first finite distance.
			i0 := cols[j0].p
			ui := u[i0]
			for _, si := range rowSpans[rowStart[i0-1]:rowStart[i0]] {
				s := spans[si]
				for j := s.lo; j < s.end; j++ {
					c := &cols[j]
					if cur, d := c.cost-ui-c.v, c.minv; cur < d {
						if d == inf {
							active = append(active, j)
						}
						c.minv = cur
						c.way = j0
						if cur < delta || (cur == delta && j < j1) {
							j1, delta = j, cur
						}
					}
				}
			}
			if j1 < 0 || math.IsInf(delta, 1) {
				panic("matching: no augmenting path despite virtual slots")
			}
			for _, j := range tree {
				c := &cols[j]
				u[c.p] += delta
				c.v -= delta
			}
			j0 = j1
			if cols[j0].p == 0 {
				break // the distances are reset below, not read again
			}
			cols[j0].minv = math.Inf(-1)
			tree = append(tree, j0)
			step := delta
			j1, delta = -1, inf
			n := 0
			for _, j := range active {
				if j == j0 {
					continue
				}
				c := &cols[j]
				d := c.minv - step
				c.minv = d
				active[n] = j
				n++
				if d < delta || (d == delta && j < j1) {
					j1, delta = j, d
				}
			}
			active = active[:n]
		}

		// Reset what this row touched (active still holds j0), then augment.
		for _, j := range tree {
			cols[j].minv = inf
		}
		for _, j := range active {
			cols[j].minv = inf
		}
		active = active[:0]
		if j0 <= nR { // j0 was its group's frontier: the next item becomes it
			s := &spans[m.colSpan[j0]]
			s.end = min(s.end+1, s.hi)
		}
		for j0 != 0 {
			j1 := cols[j0].way
			cols[j0].p = cols[j1].p
			j0 = j1
		}
	}
	m.active, m.tree = active, tree

	// Matched columns are exactly each group's prefix; walk them in column
	// order, as Solve sums its matched costs.
	for _, s := range spans[:len(groups)] {
		for j := s.lo; j < s.hi && cols[j].p != 0; j++ {
			l := cols[j].p - 1
			res.MatchL[l] = j - 1
			res.MatchR[j-1] = l
			res.Cost += cols[j].cost
			res.Cardinality++
		}
	}
	return res
}

// column is the group form's state of one column: its cost (w for a virtual
// slot), potential, tentative distance (+Inf: not reached this row; -Inf: on
// the tree), predecessor column and matched row (0: none).
type column struct {
	cost, v, minv float64
	way, p        int
}

// span is the columns one row's scan covers in a group (or in a row's
// virtual slot): [lo, end) of the group's [lo, hi), where end is one past
// the frontier, or hi once every item is matched.
type span struct{ lo, end, hi int }
