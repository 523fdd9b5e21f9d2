package matching

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// bruteMinCostMax enumerates all matchings to find max cardinality with
// minimum cost. Exponential; for tiny instances only.
func bruteMinCostMax(nL, nR int, edges []Edge) (card int, cost float64) {
	// cheapest cost per pair
	costOf := make(map[[2]int]float64)
	for _, e := range edges {
		k := [2]int{e.L, e.R}
		if c, ok := costOf[k]; !ok || e.Cost < c {
			costOf[k] = e.Cost
		}
	}
	usedR := make([]bool, nR)
	bestCard := 0
	bestCost := math.Inf(1)
	var rec func(l int, card int, cost float64)
	rec = func(l int, card int, cost float64) {
		if l == nL {
			if card > bestCard || (card == bestCard && cost < bestCost) {
				bestCard, bestCost = card, cost
			}
			return
		}
		rec(l+1, card, cost) // leave l unmatched
		for r := 0; r < nR; r++ {
			if usedR[r] {
				continue
			}
			if c, ok := costOf[[2]int{l, r}]; ok {
				usedR[r] = true
				rec(l+1, card+1, cost+c)
				usedR[r] = false
			}
		}
	}
	rec(0, 0, 0)
	if bestCard == 0 {
		return 0, 0
	}
	return bestCard, bestCost
}

func TestPerfectSquareAssignment(t *testing.T) {
	// classic 3x3, optimal = 5 (cost 1 + 2 + 2)
	costs := [3][3]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}
	var edges []Edge
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			edges = append(edges, Edge{L: i, R: j, Cost: costs[i][j]})
		}
	}
	r := MinCostMax(3, 3, edges)
	if r.Cardinality != 3 {
		t.Fatalf("cardinality %d, want 3", r.Cardinality)
	}
	if math.Abs(r.Cost-5) > 1e-9 {
		t.Fatalf("cost %v, want 5", r.Cost)
	}
}

func TestMatchConsistency(t *testing.T) {
	edges := []Edge{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}}
	r := MinCostMax(2, 2, edges)
	for l, rr := range r.MatchL {
		if rr >= 0 && r.MatchR[rr] != l {
			t.Fatalf("MatchL/MatchR inconsistent: L%d→R%d but R%d→L%d", l, rr, rr, r.MatchR[rr])
		}
	}
	if r.Cardinality != 2 {
		t.Fatalf("cardinality %d, want 2", r.Cardinality)
	}
	// optimal: 0→1 (2), 1→0 (3) = 5 (matching both beats 0→0 alone)
	if math.Abs(r.Cost-5) > 1e-9 {
		t.Fatalf("cost %v, want 5", r.Cost)
	}
}

func TestCardinalityBeatsCost(t *testing.T) {
	// Matching both pairs costs 100+100; matching only one costs 1.
	// Max-cardinality semantics must pick both.
	edges := []Edge{{0, 0, 1}, {0, 1, 100}, {1, 0, 100}}
	r := MinCostMax(2, 2, edges)
	if r.Cardinality != 2 {
		t.Fatalf("cardinality %d, want 2 (max cardinality first)", r.Cardinality)
	}
	if math.Abs(r.Cost-200) > 1e-9 {
		t.Fatalf("cost %v, want 200", r.Cost)
	}
}

func TestUnmatchableNodes(t *testing.T) {
	// Left 1 has no edges; left 0 and 2 compete for right 0.
	edges := []Edge{{0, 0, 5}, {2, 0, 3}}
	r := MinCostMax(3, 1, edges)
	if r.Cardinality != 1 {
		t.Fatalf("cardinality %d, want 1", r.Cardinality)
	}
	if r.MatchL[1] != -1 {
		t.Fatalf("node 1 should be unmatched")
	}
	if r.MatchL[2] != 0 || math.Abs(r.Cost-3) > 1e-9 {
		t.Fatalf("expected cheap edge (2,0): %+v", r)
	}
}

func TestEmptyInputs(t *testing.T) {
	r := MinCostMax(0, 0, nil)
	if r.Cardinality != 0 || r.Cost != 0 {
		t.Fatalf("empty: %+v", r)
	}
	r = MinCostMax(3, 2, nil)
	if r.Cardinality != 0 {
		t.Fatalf("no edges: %+v", r)
	}
	for _, m := range r.MatchL {
		if m != -1 {
			t.Fatal("no-edge instance matched something")
		}
	}
}

func TestDuplicateEdgesKeepCheapest(t *testing.T) {
	edges := []Edge{{0, 0, 9}, {0, 0, 2}, {0, 0, 5}}
	r := MinCostMax(1, 1, edges)
	if math.Abs(r.Cost-2) > 1e-9 {
		t.Fatalf("cost %v, want 2", r.Cost)
	}
}

func TestRectangularWide(t *testing.T) {
	// 2 left, 5 right.
	edges := []Edge{
		{0, 0, 10}, {0, 3, 1},
		{1, 1, 7}, {1, 3, 0.5},
	}
	r := MinCostMax(2, 5, edges)
	if r.Cardinality != 2 {
		t.Fatalf("cardinality %d, want 2", r.Cardinality)
	}
	// right 3 can serve only one: best total = 1 + 7 or 10 + 0.5 → 8 vs 10.5
	if math.Abs(r.Cost-8) > 1e-9 {
		t.Fatalf("cost %v, want 8", r.Cost)
	}
}

func TestRectangularTall(t *testing.T) {
	// 5 left, 2 right: only 2 can match.
	edges := []Edge{
		{0, 0, 4}, {1, 0, 1}, {2, 1, 2}, {3, 1, 9}, {4, 0, 7},
	}
	r := MinCostMax(5, 2, edges)
	if r.Cardinality != 2 {
		t.Fatalf("cardinality %d, want 2", r.Cardinality)
	}
	if math.Abs(r.Cost-3) > 1e-9 { // (1,0)=1 + (2,1)=2
		t.Fatalf("cost %v, want 3", r.Cost)
	}
}

func TestZeroCostEdges(t *testing.T) {
	edges := []Edge{{0, 0, 0}, {1, 1, 0}}
	r := MinCostMax(2, 2, edges)
	if r.Cardinality != 2 || r.Cost != 0 {
		t.Fatalf("%+v", r)
	}
}

func TestInvalidEdgesPanic(t *testing.T) {
	for _, e := range []Edge{
		{L: -1, R: 0, Cost: 1},
		{L: 0, R: 5, Cost: 1},
		{L: 0, R: 0, Cost: -2},
		{L: 0, R: 0, Cost: math.Inf(1)},
		{L: 0, R: 0, Cost: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("edge %+v should panic", e)
				}
			}()
			MinCostMax(2, 2, []Edge{e})
		}()
	}
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		nL := 1 + rng.Intn(5)
		nR := 1 + rng.Intn(5)
		var edges []Edge
		for l := 0; l < nL; l++ {
			for r := 0; r < nR; r++ {
				if rng.Float64() < 0.6 {
					edges = append(edges, Edge{L: l, R: r, Cost: math.Round(rng.Float64()*20) / 2})
				}
			}
		}
		got := MinCostMax(nL, nR, edges)
		wantCard, wantCost := bruteMinCostMax(nL, nR, edges)
		if got.Cardinality != wantCard {
			t.Fatalf("trial %d: cardinality %d, want %d (edges %v)", trial, got.Cardinality, wantCard, edges)
		}
		if wantCard > 0 && math.Abs(got.Cost-wantCost) > 1e-6 {
			t.Fatalf("trial %d: cost %v, want %v (edges %v)", trial, got.Cost, wantCost, edges)
		}
	}
}

// Property: matched edges are always real allowed edges and capacity-1 per
// node on both sides.
func TestMatchingValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL := 1 + rng.Intn(8)
		nR := 1 + rng.Intn(8)
		allowed := make(map[[2]int]bool)
		var edges []Edge
		for l := 0; l < nL; l++ {
			for r := 0; r < nR; r++ {
				if rng.Float64() < 0.5 {
					edges = append(edges, Edge{L: l, R: r, Cost: rng.Float64() * 10})
					allowed[[2]int{l, r}] = true
				}
			}
		}
		res := MinCostMax(nL, nR, edges)
		seenR := make(map[int]bool)
		card := 0
		for l, r := range res.MatchL {
			if r < 0 {
				continue
			}
			card++
			if !allowed[[2]int{l, r}] {
				return false
			}
			if seenR[r] {
				return false
			}
			seenR[r] = true
			if res.MatchR[r] != l {
				return false
			}
		}
		return card == res.Cardinality
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// fuzzGraph decodes a graph of at most 5×6 nodes from data: two size bytes,
// then (l, r, cost) triples folded into range, so repeated pairs give
// duplicate edges and small cost bytes give ties.
func fuzzGraph(data []byte) (nL, nR int, edges []Edge) {
	if len(data) < 2 {
		return 0, 0, nil
	}
	nL, nR = int(data[0]%6), int(data[1]%7)
	if nL == 0 || nR == 0 {
		return nL, nR, nil
	}
	for rest := data[2:]; len(rest) >= 3 && len(edges) < 40; rest = rest[3:] {
		edges = append(edges, Edge{L: int(rest[0]) % nL, R: int(rest[1]) % nR, Cost: float64(rest[2]) / 4})
	}
	return nL, nR, edges
}

// randomGraph is a dense-ish random graph for the reuse check.
func randomGraph(rng *rand.Rand, nL, nR int) []Edge {
	var edges []Edge
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Float64() < 0.5 {
				edges = append(edges, Edge{L: l, R: r, Cost: float64(rng.Intn(40)) / 4})
			}
		}
	}
	return edges
}

// sameResult reports whether a reused Matcher's result equals a fresh
// MinCostMax's bit for bit.
func sameResult(got, want *Result) bool {
	return got.Cardinality == want.Cardinality &&
		math.Float64bits(got.Cost) == math.Float64bits(want.Cost) &&
		slices.Equal(got.MatchL, want.MatchL) && slices.Equal(got.MatchR, want.MatchR)
}

// FuzzMinCostMaxMatchesBrute is the differential fuzz of the Hungarian
// solver: on graphs of at most 5×6 with duplicate edges, it must agree with
// exhaustive enumeration on cardinality and (within a relative tolerance) on
// cost; and one Matcher reused across the fuzzed graph, a larger graph and a
// smaller one must answer exactly as a fresh MinCostMax does each time.
func FuzzMinCostMaxMatchesBrute(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 16, 0, 1, 4, 1, 1, 0, 2, 2, 8})
	f.Add([]byte{4, 2, 0, 0, 4, 1, 0, 4, 2, 1, 4, 3, 1, 4, 0, 0, 2})
	f.Add([]byte{5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		nL, nR, edges := fuzzGraph(data)
		got := MinCostMax(nL, nR, edges)
		wantCard, wantCost := bruteMinCostMax(nL, nR, edges)
		if got.Cardinality != wantCard {
			t.Fatalf("cardinality %d, brute %d (%dx%d %v)", got.Cardinality, wantCard, nL, nR, edges)
		}
		if math.Abs(got.Cost-wantCost) > 1e-9*math.Max(1, math.Abs(wantCost)) {
			t.Fatalf("cost %v, brute %v (%dx%d %v)", got.Cost, wantCost, nL, nR, edges)
		}

		var seed int64
		for _, b := range data {
			seed = seed*31 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		bigL, bigR := nL+3+rng.Intn(4), nR+3+rng.Intn(4)
		smallL, smallR := rng.Intn(nL+1), rng.Intn(nR+1)
		graphs := []struct {
			nL, nR int
			edges  []Edge
		}{
			{nL, nR, edges},
			{bigL, bigR, randomGraph(rng, bigL, bigR)},
			{smallL, smallR, randomGraph(rng, smallL, smallR)},
			{nL, nR, edges},
		}
		var m Matcher
		for i, g := range graphs {
			if res := m.Solve(g.nL, g.nR, g.edges); !sameResult(res, MinCostMax(g.nL, g.nR, g.edges)) {
				t.Fatalf("reused Matcher diverged on graph %d (%dx%d %v)", i, g.nL, g.nR, g.edges)
			}
		}
	})
}
