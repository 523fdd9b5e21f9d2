// Package graph provides the undirected-graph and DAG primitives used by the
// MEC network model: adjacency storage, l-hop neighborhoods, shortest paths,
// and connectivity queries.
//
// Nodes are dense integer IDs in [0, N). The graph is simple (no self-loops,
// no parallel edges); AddEdge is idempotent. Edges live in adjacency lists
// only: an edge test scans the shorter of the two lists, which on the
// sparse MEC topologies (mean degree about 5) is cheaper than keeping an
// edge-set index per node.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over nodes 0..N-1.
type Graph struct {
	n   int
	adj [][]int
	m   int
}

// New returns an empty undirected graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge (u,v). Self-loops are rejected;
// duplicate insertions are ignored. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if g.hasEdge(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
	return true
}

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.hasEdge(u, v)
}

// hasEdge scans the shorter of the two adjacency lists for the other end.
func (g *Graph) hasEdge(u, v int) bool {
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Edges returns all undirected edges with u < v, sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}
