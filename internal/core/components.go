package core

import "sort"

// splitComponents partitions the chain positions into independent groups:
// two positions interact only if their allowed bin sets intersect (they
// compete for the same cloudlet capacity). The augmentation objective is
// separable across groups, so each can be solved exactly on its own — this
// is the decomposition that keeps the exact ILP search tractable at the
// paper's scale (a position's bins cluster around its primary, so groups
// stay small even for long chains).
func splitComponents(inst *Instance) [][]int {
	n := len(inst.Positions)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	binOwner := make(map[int]int) // first position seen using each bin
	for i, p := range inst.Positions {
		for _, u := range p.Bins {
			if o, ok := binOwner[u]; ok {
				union(i, o)
			} else {
				binOwner[u] = i
			}
		}
	}

	groups := make(map[int][]int)
	for i := range inst.Positions {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var roots []int
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		sort.Ints(groups[r])
		out = append(out, groups[r])
	}
	return out
}

// solveSinglePosition solves a one-position component exactly in closed
// form: item rewards are positive and decreasing, and all items of the
// position have equal size, so the optimum simply packs as many items as
// capacity (and the K cap) allows, in any bin order. Returns the per-bin
// placement and its log-gain objective value.
func solveSinglePosition(inst *Instance, i int) ([]map[int]int, float64) {
	p := &inst.Positions[i]
	perBin := map[int]int{}
	placed := 0
	for b, u := range p.Bins {
		if placed >= p.K {
			break
		}
		take := p.Slots[b]
		if placed+take > p.K {
			take = p.K - placed
		}
		if take > 0 {
			perBin[u] += take
			placed += take
		}
	}
	obj := 0.0
	for k := 1; k <= placed; k++ {
		obj += p.Gains[k-1]
	}
	return []map[int]int{perBin}, obj
}

// subInstance builds the component instance for the given position indices.
// Residuals are shared by reference semantics via copy (each component's bins
// are disjoint from every other component's, so a plain snapshot copy is
// safe).
func subInstance(inst *Instance, positions []int) *Instance {
	sub := &Instance{
		Net:      inst.Net,
		Req:      inst.Req,
		Params:   inst.Params,
		Residual: inst.Residual,
		Budget:   inst.Budget,
		Deadline: inst.Deadline,
	}
	// Components are solved to their capacity-bound maximum regardless of ρ
	// (trimming back to ρ happens globally afterwards), so the sub-request
	// carries an unreachable expectation.
	reqCopy := *inst.Req
	reqCopy.Expectation = 1.0
	sub.Req = &reqCopy

	binSeen := make(map[int]bool)
	initial := 1.0
	for _, i := range positions {
		p := inst.Positions[i]
		p.Index = len(sub.Positions)
		sub.Positions = append(sub.Positions, p)
		for _, u := range p.Bins {
			binSeen[u] = true
		}
		initial *= p.Func.Reliability
	}
	sub.InitialReliability = initial
	for _, u := range inst.BinSet {
		if binSeen[u] {
			sub.BinSet = append(sub.BinSet, u)
		}
	}
	return sub
}
