package graph

// HopDistances returns the hop distance from src to every node, with -1 for
// unreachable nodes, computed by breadth-first search.
func (g *Graph) HopDistances(src int) []int {
	g.check(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// NeighborsWithinPlus returns N_l^+(v) = N_l(v) ∪ {v}, in ascending order.
func (g *Graph) NeighborsWithinPlus(v, l int) []int {
	g.check(v)
	if l < 1 {
		return []int{v}
	}
	dist := g.boundedBFS(v, l)
	out := make([]int, 0)
	for u, d := range dist {
		if d >= 0 {
			out = append(out, u)
		}
	}
	return out
}

// boundedBFS returns hop distances from src truncated at maxHops; nodes
// farther than maxHops have distance -1.
func (g *Graph) boundedBFS(src, maxHops int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] >= maxHops {
			continue
		}
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.HopDistances(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components returns the connected components as slices of node IDs, each
// sorted ascending, ordered by their smallest node. One breadth-first pass
// labels every node with its component; the lists are then filled by one
// scan in node order, which sorts them.
func (g *Graph) Components() [][]int {
	label := make([]int, g.n) // component index + 1; 0 while unreached
	queue := make([]int, 0, g.n)
	var sizes []int
	for s := 0; s < g.n; s++ {
		if label[s] != 0 {
			continue
		}
		label[s] = len(sizes) + 1
		queue = append(queue[:0], s)
		for h := 0; h < len(queue); h++ {
			for _, v := range g.adj[queue[h]] {
				if label[v] == 0 {
					label[v] = label[s]
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, len(queue))
	}
	comps := make([][]int, len(sizes))
	for i, n := range sizes {
		comps[i] = make([]int, 0, n)
	}
	for u, c := range label {
		comps[c-1] = append(comps[c-1], u)
	}
	return comps
}
