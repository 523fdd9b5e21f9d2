package core

import "sort"

// flowRelax solves the node relaxation of the count branch-and-bound exactly
// and combinatorially, replacing a general simplex call with a polymatroid
// greedy that runs in microseconds at this problem's sizes.
//
// The relaxation is: maximize Σ_i G_i(T_i) over fractional counts T, where
// G_i is the concave piecewise-linear prefix-sum of position i's (strictly
// decreasing, positive) item rewards, subject to lo ≤ T ≤ hi and T being
// fractionally packable into the bins. In scaled units x_{i,u} = c_i·y_{i,u}
// the packable region is an independent-flow polytope over the tiny
// positions×bins bipartite network, whose projection onto T is a polymatroid
// (max-flow/min-cut submodularity); box-intersections and lower-bound
// contractions of polymatroids are again polymatroids, so the classic result
// of Federgruen & Groenevelt applies: processing items in decreasing
// gain-per-MHz order and raising each coordinate to its maximal feasible
// extent (an augmenting-path computation) yields the exact optimum.
//
// Returns the optimal objective, the fractional counts, the per-(position,
// bin) flows in instances (flow/c_i), and whether the box is feasible at all
// (lower bounds can make it infeasible).
type flowRelax struct {
	inst *Instance
	obj  Objective

	// static, built once per countBB:
	order []flowItem // all items, decreasing density
	w     float64    // paper-cost dominating reward (0 for log-gain)
	// arcCap[i][b] is the MHz capacity of the arc position i → its b-th bin:
	// slots_{i,b}·c_i, the integral-slot upper bound the paper's ILP puts on
	// y_{i,u}. Without it the relaxation would be weaker than the LP.
	arcCap [][]float64
	binIdx []int // bin node id -> index into BinSet (static per instance)
	// arcAt[i*len(BinSet)+bi] is the index of BinSet[bi] in position i's
	// Bins (-1: not one of its bins), so walking an arc never scans Bins.
	arcAt []int

	// per-solve scratch, reused across the thousands of relaxation calls a
	// count branch-and-bound makes (callers never retain the returned
	// counts/flows past the next solve):
	flow    [][]float64
	binCap  []float64
	binUsed []float64
	counts  []float64
	visited []bool
	log     []flowHop
	path    []int
}

// flowHop is one BFS step of an augmenting-path search.
type flowHop struct {
	node int
	prev int // index into the visit log
}

type flowItem struct {
	pos     int
	k       int // 1-based item index
	reward  float64
	density float64
}

// newFlowRelax precomputes the density order.
func newFlowRelax(inst *Instance, obj Objective) *flowRelax {
	fr := &flowRelax{inst: inst, obj: obj, order: make([]flowItem, 0, inst.TotalItems())}
	if obj == ObjectivePaperCost {
		fr.w = paperCostDominator(inst)
	}
	for i := range inst.Positions {
		p := &inst.Positions[i]
		for k := 1; k <= p.K; k++ {
			reward := p.Gains[k-1]
			if obj == ObjectivePaperCost {
				reward = fr.w - p.Costs[k-1]
			}
			fr.order = append(fr.order, flowItem{
				pos:     i,
				k:       k,
				reward:  reward,
				density: reward / p.Func.Demand,
			})
		}
	}
	sort.SliceStable(fr.order, func(a, b int) bool {
		return fr.order[a].density > fr.order[b].density
	})
	fr.arcCap = make([][]float64, len(inst.Positions))
	fr.flow = make([][]float64, len(inst.Positions))
	for i := range inst.Positions {
		p := &inst.Positions[i]
		fr.arcCap[i] = make([]float64, len(p.Bins))
		fr.flow[i] = make([]float64, len(p.Bins))
		for b := range p.Bins {
			slots := p.Slots[b]
			if slots > p.K {
				slots = p.K
			}
			fr.arcCap[i][b] = float64(slots) * p.Func.Demand
		}
	}
	fr.binIdx = make([]int, len(inst.Residual))
	fr.binCap = make([]float64, len(inst.BinSet))
	fr.binUsed = make([]float64, len(inst.BinSet))
	fr.counts = make([]float64, len(inst.Positions))
	fr.visited = make([]bool, len(inst.Positions)+len(inst.BinSet))
	for bi, u := range inst.BinSet {
		fr.binIdx[u] = bi
	}
	fr.arcAt = make([]int, len(inst.Positions)*len(inst.BinSet))
	for k := range fr.arcAt {
		fr.arcAt[k] = -1
	}
	for i := range inst.Positions {
		for b, u := range inst.Positions[i].Bins {
			fr.arcAt[i*len(inst.BinSet)+fr.binIdx[u]] = b
		}
	}
	return fr
}

const flowEps = 1e-9

// solve evaluates one box. flows[i] is indexed like Positions[i].Bins.
func (fr *flowRelax) solve(lo, hi []int) (obj float64, counts []float64, flows [][]float64, feasible bool) {
	inst := fr.inst
	nPos := len(inst.Positions)

	// Bin residual capacities (MHz), indexed by bin slot; flow[i][b] is the
	// MHz routed from position i to its b-th bin. All reused scratch.
	binIdx := fr.binIdx
	binCap := fr.binCap
	for bi, u := range inst.BinSet {
		binCap[bi] = inst.Residual[u]
	}
	flow := fr.flow
	for i := range flow {
		row := flow[i]
		for b := range row {
			row[b] = 0
		}
	}
	binUsed := fr.binUsed
	for bi := range binUsed {
		binUsed[bi] = 0
	}
	counts = fr.counts
	for i := range counts {
		counts[i] = 0
	}

	// push routes up to amount MHz from position i into its bins, using
	// augmenting paths through the bipartite residual network (positions may
	// reroute each other's flow). Returns the amount actually routed.
	push := func(i int, amount float64) float64 {
		routed := 0.0
		for amount-routed > flowEps {
			delta := fr.augment(i, amount-routed, flow, binUsed, binCap, binIdx)
			if delta <= flowEps {
				break
			}
			routed += delta
		}
		return routed
	}

	// Phase 1: satisfy lower bounds.
	for i := 0; i < nPos; i++ {
		if lo[i] <= 0 {
			continue
		}
		need := float64(lo[i]) * inst.Positions[i].Func.Demand
		got := push(i, need)
		if need-got > 1e-6 {
			return 0, nil, nil, false
		}
		counts[i] = float64(lo[i])
		if fr.obj == ObjectivePaperCost {
			for k := 1; k <= lo[i]; k++ {
				obj += fr.w - inst.Positions[i].Costs[k-1]
			}
		} else {
			for k := 1; k <= lo[i]; k++ {
				obj += inst.Positions[i].Gains[k-1]
			}
		}
	}

	// Phase 2: greedy by density over the remaining items.
	for _, it := range fr.order {
		if it.k <= lo[it.pos] || it.k > hi[it.pos] {
			continue
		}
		demand := inst.Positions[it.pos].Func.Demand
		got := push(it.pos, demand)
		if got <= flowEps {
			continue
		}
		frac := got / demand
		obj += it.reward * frac
		counts[it.pos] += frac
	}
	return obj, counts, flow, true
}

// augment finds one augmenting path from position src to any bin with spare
// capacity in the residual network and pushes up to want MHz along it.
// Residual arcs: position→its bins (always available), bin→position (if that
// position currently routes flow into the bin, it can be rerouted).
func (fr *flowRelax) augment(src int, want float64, flow [][]float64, binUsed, binCap []float64, binIdx []int) float64 {
	inst := fr.inst
	nPos, nBin := len(inst.Positions), len(inst.BinSet)

	// BFS over nodes: positions [0,nPos), bins [nPos, nPos+nBin).
	visited := fr.visited
	for n := range visited {
		visited[n] = false
	}
	log := append(fr.log[:0], flowHop{node: src, prev: -1})
	visited[src] = true
	goal := -1
	for qi := 0; qi < len(log) && goal < 0; qi++ {
		n := log[qi].node
		if n < nPos {
			// position → bins it may use, through unsaturated arcs only
			p := &inst.Positions[n]
			for b, u := range p.Bins {
				if fr.arcCap[n][b]-flow[n][b] <= flowEps {
					continue
				}
				bi := binIdx[u] + nPos
				if !visited[bi] {
					visited[bi] = true
					log = append(log, flowHop{node: bi, prev: qi})
					if binCap[binIdx[u]]-binUsed[binIdx[u]] > flowEps {
						goal = len(log) - 1
						break
					}
				}
			}
		} else {
			// bin → positions that can withdraw flow from it
			bi := n - nPos
			for j := 0; j < nPos; j++ {
				if visited[j] {
					continue
				}
				if b := fr.arcAt[j*nBin+bi]; b >= 0 && flow[j][b] > flowEps {
					visited[j] = true
					log = append(log, flowHop{node: j, prev: qi})
				}
			}
		}
	}
	fr.log = log // keep the grown buffer for the next call
	if goal < 0 {
		return 0
	}

	// Reconstruct path (node sequence src → ... → free bin).
	path := fr.path[:0]
	for idx := goal; idx >= 0; idx = log[idx].prev {
		path = append(path, log[idx].node)
	}
	fr.path = path
	// reverse
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}

	// Bottleneck: min over residual capacities along the path — terminal bin
	// spare, backward-arc flows, and forward-arc slot capacities.
	bottleneck := want
	lastBin := path[len(path)-1] - nPos
	if spare := binCap[lastBin] - binUsed[lastBin]; spare < bottleneck {
		bottleneck = spare
	}
	for s := 0; s+1 < len(path); s++ {
		a, b := path[s], path[s+1]
		if a < nPos { // forward arc position a → bin b
			bb := fr.arcAt[a*nBin+b-nPos]
			if spare := fr.arcCap[a][bb] - flow[a][bb]; spare < bottleneck {
				bottleneck = spare
			}
		} else if bb := fr.arcAt[b*nBin+a-nPos]; flow[b][bb] < bottleneck { // backward arc bin a → position b
			bottleneck = flow[b][bb]
		}
	}
	if bottleneck <= flowEps {
		return 0
	}

	// Apply: forward arcs position→bin add flow; backward bin→position
	// remove it. Bin usage changes only at the terminal bin.
	for s := 0; s+1 < len(path); s++ {
		a, b := path[s], path[s+1]
		if a < nPos {
			flow[a][fr.arcAt[a*nBin+b-nPos]] += bottleneck
		} else {
			flow[b][fr.arcAt[b*nBin+a-nPos]] -= bottleneck
		}
	}
	binUsed[lastBin] += bottleneck
	return bottleneck
}
