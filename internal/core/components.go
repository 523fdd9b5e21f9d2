package core

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

	owner := make([]int, len(inst.Residual)) // 1 + the first position seen using each bin
	for i, p := range inst.Positions {
		for _, u := range p.Bins {
			if o := owner[u]; o > 0 {
				union(i, o-1)
			} else {
				owner[u] = i + 1
			}
		}
	}

	// Groups in ascending order of their root, each in ascending position
	// order, carved from one array: at[r] is where root r's next member goes.
	at := make([]int, n+1)
	for i := range parent {
		at[find(i)+1]++
	}
	groups := 0
	for r := 0; r < n; r++ {
		if at[r+1] > 0 {
			groups++
		}
		at[r+1] += at[r]
	}
	members := make([]int, n)
	out := make([][]int, 0, groups)
	for r := 0; r < n; r++ {
		if at[r+1] > at[r] {
			out = append(out, members[at[r]:at[r+1]:at[r+1]])
		}
	}
	for i := range parent {
		r := find(i)
		members[at[r]] = i
		at[r]++
	}
	return out
}

// solveSinglePosition solves a one-position component exactly in closed
// form: item rewards are positive and decreasing, and all items of the
// position have equal size, so the optimum simply packs as many items as
// capacity (and the K cap) allows, in any bin order. It fills row (the
// position's zero per-bin counts) and returns the placement's value under
// obj, priced item by item as solveCountBB prices the component (under
// paper-cost, off the component's own dominator).
func solveSinglePosition(inst *Instance, i int, obj Objective, row []int) (val float64) {
	p := &inst.Positions[i]
	placed := 0
	for b := range p.Bins {
		if placed >= p.K {
			break
		}
		take := min(p.Slots[b], p.K-placed)
		row[b] += take
		placed += take
	}
	w := 0.0
	if obj == ObjectivePaperCost {
		w = paperCostDominator(&Instance{Positions: inst.Positions[i : i+1]})
	}
	for k := 1; k <= placed; k++ {
		if obj == ObjectivePaperCost {
			val += w - p.Costs[k-1]
		} else {
			val += p.Gains[k-1]
		}
	}
	return val
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

	sub.Positions = make([]Position, len(positions))
	seen := make([]bool, len(inst.Residual))
	initial := 1.0
	for k, i := range positions {
		p := inst.Positions[i]
		p.Index = k
		sub.Positions[k] = p
		for _, u := range p.Bins {
			seen[u] = true
		}
		initial *= p.initial()
	}
	sub.InitialReliability = initial
	nBins := 0
	for _, u := range inst.BinSet {
		if seen[u] {
			nBins++
		}
	}
	sub.BinSet = make([]int, 0, nBins)
	for _, u := range inst.BinSet {
		if seen[u] {
			sub.BinSet = append(sub.BinSet, u)
		}
	}
	return sub
}
