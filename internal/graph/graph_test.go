package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	f()
}

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got N=%d M=%d, want 5,0", g.N(), g.M())
	}
	for u := 0; u < 5; u++ {
		if g.Degree(u) != 0 {
			t.Fatalf("node %d degree %d, want 0", u, g.Degree(u))
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	mustPanic(t, func() { New(-1) })
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("first AddEdge returned false")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate (reversed) AddEdge returned true")
	}
	if g.M() != 1 {
		t.Fatalf("M=%d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(2, 3) {
		t.Fatal("HasEdge reports nonexistent edge")
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	g := New(3)
	mustPanic(t, func() { g.AddEdge(1, 1) })
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(3)
	mustPanic(t, func() { g.AddEdge(0, 3) })
	mustPanic(t, func() { g.AddEdge(-1, 0) })
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	es := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {2, 3}}
	if len(es) != len(want) {
		t.Fatalf("got %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone changed original")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("clone lost edge")
	}
}

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestHopDistancesPath(t *testing.T) {
	g := pathGraph(5)
	d := g.HopDistances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist[%d]=%d, want %d", i, d[i], want)
		}
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	d := g.HopDistances(0)
	if d[2] != -1 {
		t.Fatalf("dist[2]=%d, want -1", d[2])
	}
}

func TestNeighborsWithin(t *testing.T) {
	g := pathGraph(6)
	got := g.NeighborsWithinPlus(2, 2)
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("N_2^+(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("N_2^+(2) = %v, want %v", got, want)
		}
	}
}

func TestNeighborsWithinPlusIncludesSelf(t *testing.T) {
	g := pathGraph(4)
	got := g.NeighborsWithinPlus(1, 1)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("N_1^+(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("N_1^+(1) = %v, want %v", got, want)
		}
	}
	got0 := g.NeighborsWithinPlus(1, 0)
	if len(got0) != 1 || got0[0] != 1 {
		t.Fatalf("N_0^+(1) = %v, want [1]", got0)
	}
}

func TestNeighborsWithinLargeL(t *testing.T) {
	g := pathGraph(5)
	got := g.NeighborsWithinPlus(0, 100)
	if len(got) != 5 {
		t.Fatalf("N_100^+(0) = %v, want every node", got)
	}
}

func TestConnected(t *testing.T) {
	g := pathGraph(4)
	if !g.Connected() {
		t.Fatal("path graph should be connected")
	}
	h := New(4)
	h.AddEdge(0, 1)
	if h.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 2 || comps[0][0] != 0 {
		t.Fatalf("component 0 = %v", comps[0])
	}
	if len(comps[1]) != 3 || comps[1][0] != 2 {
		t.Fatalf("component 1 = %v", comps[1])
	}
	if len(comps[2]) != 1 || comps[2][0] != 5 {
		t.Fatalf("component 2 = %v", comps[2])
	}
}

func TestPathToEdgeCases(t *testing.T) {
	if p := PathTo([]int{-1, -1}, 0, 0); len(p) != 1 || p[0] != 0 {
		t.Fatalf("src==dst path = %v", p)
	}
	if p := PathTo([]int{-1, -1}, 0, 1); p != nil {
		t.Fatalf("unreachable path = %v, want nil", p)
	}
	if p := PathTo([]int{-1}, 0, 5); p != nil {
		t.Fatalf("out-of-range dst path = %v, want nil", p)
	}
}

// Property: N_l^+(v) is monotone nondecreasing in l, and N_{n-1}^+(v) is the
// whole component of v.
func TestNeighborhoodMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		v := rng.Intn(n)
		prevSize := 0
		for l := 1; l < n; l++ {
			cur := len(g.NeighborsWithinPlus(v, l))
			if cur < prevSize {
				return false
			}
			prevSize = cur
		}
		comp := 0
		for _, d := range g.HopDistances(v) {
			if d >= 0 {
				comp++
			}
		}
		return prevSize == comp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
