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
// Reuse contract: a Matcher is a workspace for a sequence of graphs solved
// one after another by one goroutine. Its buffers grow only when a graph is
// bigger than any it has seen, so a caller running many rounds (Algorithm 2
// runs one per matching round) allocates once per call instead of once per
// round. The *Result a Matcher returns — MatchL and MatchR included — is
// owned by the Matcher and valid only until its next Solve; copy what must
// outlive that. MinCostMax solves on a fresh Matcher, so its Result is the
// caller's to keep. Reuse never changes an answer: Solve resets every buffer
// it reads, and a reused Matcher returns exactly what a fresh one does.
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
	a         []float64 // nL × (nR+nL) cost matrix, row-major
	u, v      []float64 // row and column potentials
	minv      []float64 // per-row shortest reduced cost to each column
	p, way    []int     // column → row matched; predecessor column on the path
	used      []bool    // columns already on the current row's tree
	res       Result
	matchBack []int // backing store for res.MatchL and res.MatchR
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Solve is MinCostMax on the Matcher's buffers. The returned Result belongs
// to the Matcher and is overwritten by the next Solve.
func (m *Matcher) Solve(nL, nR int, edges []Edge) *Result {
	if nL < 0 || nR < 0 {
		panic(fmt.Sprintf("matching: negative side sizes %d,%d", nL, nR))
	}
	m.matchBack = grow(m.matchBack, nL+nR)
	for i := range m.matchBack {
		m.matchBack[i] = -1
	}
	res := &m.res
	*res = Result{MatchL: m.matchBack[:nL:nL], MatchR: m.matchBack[nL:]}
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
