package topology

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestWaxmanConnectedAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		top := Waxman(DefaultWaxman(100), rng)
		if top.G.N() != 100 {
			t.Fatalf("N=%d, want 100", top.G.N())
		}
		if !top.G.Connected() {
			t.Fatal("Waxman graph not connected after repair")
		}
		if len(top.Coords) != 100 {
			t.Fatalf("coords len %d", len(top.Coords))
		}
	}
}

func TestWaxmanMeanDegreeReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	top := Waxman(DefaultWaxman(100), rng)
	mean := 2 * float64(top.G.M()) / float64(top.G.N())
	if mean < 2 || mean > 20 {
		t.Fatalf("mean degree %.2f implausible for GT-ITM-like flat graph", mean)
	}
}

func TestWaxmanDeterministicForSeed(t *testing.T) {
	a := Waxman(DefaultWaxman(50), rand.New(rand.NewSource(42)))
	b := Waxman(DefaultWaxman(50), rand.New(rand.NewSource(42)))
	ea, eb := a.G.Edges(), b.G.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

// waxmanReference is Waxman's pair loop as the model states it: each pair's
// probability is computed, then its draw is compared against it.
func waxmanReference(p WaxmanParams, rng *rand.Rand) *Topology {
	coords := make([]Point, p.N)
	for i := range coords {
		coords[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	g := graph.New(p.N)
	maxD := math.Sqrt2
	for u := 0; u < p.N; u++ {
		for v := u + 1; v < p.N; v++ {
			prob := p.Alpha * math.Exp(-Euclid(coords[u], coords[v])/(p.Beta*maxD))
			if rng.Float64() < prob {
				g.AddEdge(u, v)
			}
		}
	}
	t := &Topology{G: g, Coords: coords}
	t.ensureConnected(rng)
	return t
}

// TestWaxmanMatchesReference pins that rejecting pairs before their
// exponential changes nothing: on 1,000 seeds of the experiments' network,
// and on parameter sets where Alpha rejects no draw by itself (Alpha 1),
// where almost every pair is far (Beta 0.02) and where none is (Beta 1),
// Waxman builds the reference's topology — coordinates, edges and every
// adjacency list in insertion order — and leaves the rng where the
// reference leaves it.
func TestWaxmanMatchesReference(t *testing.T) {
	params := []struct {
		p     WaxmanParams
		seeds int64
	}{
		{DefaultWaxman(100), 1000},
		{WaxmanParams{N: 60, Alpha: 1, Beta: 0.3}, 100},
		{WaxmanParams{N: 60, Alpha: 0.9, Beta: 0.02}, 100},
		{WaxmanParams{N: 40, Alpha: 0.5, Beta: 1}, 100},
	}
	for _, c := range params {
		for seed := int64(0); seed < c.seeds; seed++ {
			ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := Waxman(c.p, ra), waxmanReference(c.p, rb)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v seed %d: topology differs from the reference (%d vs %d edges)", c.p, seed, got.G.M(), want.G.M())
			}
			if a, b := ra.Int63(), rb.Int63(); a != b {
				t.Fatalf("%+v seed %d: rng left at a different draw", c.p, seed)
			}
		}
	}
}

func TestWaxmanInvalidParamsPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []WaxmanParams{
		{N: 0, Alpha: 0.5, Beta: 0.5},
		{N: 10, Alpha: 0, Beta: 0.5},
		{N: 10, Alpha: 0.5, Beta: 1.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("params %+v should panic", p)
				}
			}()
			Waxman(p, rng)
		}()
	}
}

func TestErdosRenyiConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	top := ErdosRenyi(60, 0.02, rng) // sparse: repair must kick in sometimes
	if !top.G.Connected() {
		t.Fatal("ER graph not connected after repair")
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	empty := ErdosRenyi(10, 0, rng)
	if !empty.G.Connected() {
		t.Fatal("p=0 graph should be repaired to connected")
	}
	if empty.G.M() != 9 {
		t.Fatalf("p=0 repair should add exactly n-1 bridges, got %d", empty.G.M())
	}
	full := ErdosRenyi(10, 1, rng)
	if full.G.M() != 45 {
		t.Fatalf("p=1 should be complete: M=%d, want 45", full.G.M())
	}
}

func TestGridStructure(t *testing.T) {
	top := Grid(3, 4)
	g := top.G
	if g.N() != 12 {
		t.Fatalf("N=%d", g.N())
	}
	// 3*(4-1) horizontal + 4*(3-1) vertical = 9+8 = 17
	if g.M() != 17 {
		t.Fatalf("M=%d, want 17", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) || g.HasEdge(0, 5) {
		t.Fatal("grid adjacency wrong")
	}
	if !g.Connected() {
		t.Fatal("grid should be connected")
	}
}

func TestRingStructure(t *testing.T) {
	top := Ring(5)
	if top.G.M() != 5 {
		t.Fatalf("M=%d, want 5", top.G.M())
	}
	for u := 0; u < 5; u++ {
		if top.G.Degree(u) != 2 {
			t.Fatalf("node %d degree %d, want 2", u, top.G.Degree(u))
		}
	}
	if Ring(2).G.M() != 1 {
		t.Fatal("Ring(2) should degrade to a single edge")
	}
	if Ring(1).G.M() != 0 {
		t.Fatal("Ring(1) should have no edges")
	}
}

func TestStarStructure(t *testing.T) {
	top := Star(6)
	if top.G.Degree(0) != 5 {
		t.Fatalf("center degree %d, want 5", top.G.Degree(0))
	}
	for u := 1; u < 6; u++ {
		if top.G.Degree(u) != 1 {
			t.Fatalf("leaf %d degree %d", u, top.G.Degree(u))
		}
	}
}

func TestTransitStubConnectedAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := DefaultTransitStub(100)
	top := TransitStub(p, rng)
	want := p.TransitNodes + p.TransitNodes*p.StubsPerNode*p.StubSize
	if top.G.N() != want {
		t.Fatalf("N=%d, want %d", top.G.N(), want)
	}
	if !top.G.Connected() {
		t.Fatal("transit-stub graph not connected")
	}
}

func TestTransitStubInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransitStub(TransitStubParams{TransitNodes: 0, StubsPerNode: 1, StubSize: 1}, rand.New(rand.NewSource(1)))
}

// Property: every generator output is connected and coordinates lie in the
// unit square.
func TestGeneratorsConnectedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		tops := []*Topology{
			Waxman(DefaultWaxman(n), rng),
			ErdosRenyi(n, 0.05, rng),
			TransitStub(DefaultTransitStub(n), rng),
		}
		for _, top := range tops {
			if !top.G.Connected() {
				return false
			}
			for _, c := range top.Coords {
				if c.X < 0 || c.X > 1 || c.Y < 0 || c.Y > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
