package graph

import (
	"fmt"
	"math"
)

// DAG is a directed acyclic graph with float64 arc weights, used by the
// admission framework to model layered placement graphs. Nodes are dense IDs
// in [0, N). Arcs may be added in any order; acyclicity is verified by
// TopoOrder / ShortestPathDAG, which fail on cyclic inputs.
type DAG struct {
	n    int
	arcs [][]Arc
	m    int
}

// Arc is a directed weighted edge to a destination node.
type Arc struct {
	To int
	W  float64
}

// NewDAG returns an empty DAG with n nodes.
func NewDAG(n int) *DAG {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &DAG{n: n, arcs: make([][]Arc, n)}
}

// N returns the number of nodes.
func (d *DAG) N() int { return d.n }

// M returns the number of arcs.
func (d *DAG) M() int { return d.m }

// AddArc inserts the directed arc u→v with weight w.
func (d *DAG) AddArc(u, v int, w float64) {
	d.checkNode(u)
	d.checkNode(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-arc at node %d", u))
	}
	d.arcs[u] = append(d.arcs[u], Arc{To: v, W: w})
	d.m++
}

// Arcs returns the outgoing arcs of u; the slice is owned by the DAG.
func (d *DAG) Arcs(u int) []Arc {
	d.checkNode(u)
	return d.arcs[u]
}

// TopoOrder returns a topological ordering of the nodes, or an error if the
// graph contains a cycle.
func (d *DAG) TopoOrder() ([]int, error) {
	indeg := make([]int, d.n)
	for u := 0; u < d.n; u++ {
		for _, a := range d.arcs[u] {
			indeg[a.To]++
		}
	}
	queue := make([]int, 0, d.n)
	for u := 0; u < d.n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	order := make([]int, 0, d.n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, a := range d.arcs[u] {
			indeg[a.To]--
			if indeg[a.To] == 0 {
				queue = append(queue, a.To)
			}
		}
	}
	if len(order) != d.n {
		return nil, fmt.Errorf("graph: DAG contains a cycle (%d of %d nodes ordered)", len(order), d.n)
	}
	return order, nil
}

// ShortestPathDAG computes the minimum-weight src→dst path by relaxing arcs
// in topological order (weights may be negative). It returns the path as a
// node sequence and its total weight. An error is reported for cyclic graphs
// or when dst is unreachable.
func (d *DAG) ShortestPathDAG(src, dst int) ([]int, float64, error) {
	d.checkNode(src)
	d.checkNode(dst)
	order, err := d.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	dist := make([]float64, d.n)
	prev := make([]int, d.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	for _, u := range order {
		if math.IsInf(dist[u], 1) {
			continue
		}
		for _, a := range d.arcs[u] {
			if nd := dist[u] + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				prev[a.To] = u
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, fmt.Errorf("graph: node %d unreachable from %d in DAG", dst, src)
	}
	path := PathTo(prev, src, dst)
	return path, dist[dst], nil
}

func (d *DAG) checkNode(u int) {
	if u < 0 || u >= d.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, d.n))
	}
}

// PathTo reconstructs the path src→dst from a predecessor slice (-1 for src
// and unreachable nodes). It returns nil when dst is unreachable.
func PathTo(prev []int, src, dst int) []int {
	if dst < 0 || dst >= len(prev) {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	if prev[dst] < 0 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}
