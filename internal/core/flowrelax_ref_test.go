package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mec"
	"repro/internal/workload"
)

// flowRelaxRef is the flow relaxation as it was before solve skipped blocked
// positions and augment searched on masks: solve and augment below are that
// code verbatim, run on the same static tables and on scratch of its own.
// The tables and scratch the mask search does without live here: the bin
// index, the arc index and the visited and path buffers.
type flowRelaxRef struct {
	*flowRelax
	binIdx []int // bin node id -> index into BinSet
	// arcAt[i*len(BinSet)+bi] is the index of BinSet[bi] in position i's
	// Bins (-1: not one of its bins).
	arcAt   []int
	visited []bool
	path    []int
}

// newFlowRelaxRef builds the reference relaxation of inst under obj.
func newFlowRelaxRef(inst *Instance, obj Objective) flowRelaxRef {
	ref := flowRelaxRef{
		flowRelax: newFlowRelax(inst, obj),
		binIdx:    make([]int, len(inst.Residual)),
		arcAt:     make([]int, len(inst.Positions)*len(inst.BinSet)),
		visited:   make([]bool, len(inst.Positions)+len(inst.BinSet)),
	}
	for bi, u := range inst.BinSet {
		ref.binIdx[u] = bi
	}
	for k := range ref.arcAt {
		ref.arcAt[k] = -1
	}
	for i := range inst.Positions {
		for b, u := range inst.Positions[i].Bins {
			ref.arcAt[i*len(inst.BinSet)+ref.binIdx[u]] = b
		}
	}
	return ref
}

// solve evaluates one box. flows[i] is indexed like Positions[i].Bins.
func (fr *flowRelaxRef) solve(lo, hi []int) (obj float64, counts []float64, flows [][]float64, feasible bool) {
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
func (fr *flowRelaxRef) augment(src int, want float64, flow [][]float64, binUsed, binCap []float64, binIdx []int) float64 {
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

// TestFlowRelaxMatchesReference pins the blocked-position skip and the
// floor-child resume as bit-identical: on every box the count
// branch-and-bound relaxes on the hard Fig. 1 trees (BenchmarkCountBBHard's
// seven), solved afresh or resumed from its parent's state, and on random
// boxes of random instances under both objectives, the relaxation and the
// reference return the same feasibility, objective bits, count bits and
// flow bits. Every box the box bound prunes unrelaxed is one the reference
// bounds at or below the cut it was pruned at (or finds infeasible). On
// length 18 trial 32 both shortcuts must fire.
func TestFlowRelaxMatchesReference(t *testing.T) {
	// The walk must be the solver's search: on the trees the solver golden
	// pins, it evaluates exactly the golden's node count.
	goldenNodes := map[string]int{}
	data, err := os.ReadFile(solverGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden []solverGoldenRecord
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		if g.Solver == "ILP" {
			goldenNodes[g.Instance] = g.Nodes
		}
	}
	names, insts := fig1TrialInstances(slices.Concat(hardFig1Trials, fig1LargestTrees))
	for k, inst := range insts {
		boxes, condemned, warm := 0, 0, 0
		for _, group := range splitComponents(inst) {
			if len(group) == 1 {
				continue
			}
			sub := subInstance(inst, group)
			ref := newFlowRelaxRef(sub, ObjectiveLogGain)
			bb := walkCountTree(sub, ObjectiveLogGain, func(box countBox, obj float64, counts []float64, flows [][]float64, feasible bool) {
				sameAsReference(t, names[k], box, obj, counts, flows, feasible, ref)
			}, func(box countBox, cut float64) {
				if obj, _, _, feasible := ref.solve(box.lo, box.hi); feasible && obj > cut {
					t.Fatalf("%s box lo %v hi %v: pruned unrelaxed at cut %v, reference bound %v", names[k], box.lo, box.hi, cut, obj)
				}
			})
			boxes += bb.nodes
			condemned += bb.nodes - bb.relaxed
			warm += bb.warm
		}
		if want, ok := goldenNodes[names[k]]; ok && boxes != want {
			t.Fatalf("%s: the walk evaluated %d boxes, the solver %d nodes", names[k], boxes, want)
		}
		if names[k] == "fig1-len18-trial32" && (condemned == 0 || warm == 0) {
			t.Fatalf("%s: %d boxes pruned unrelaxed, %d relaxations resumed; both shortcuts must fire", names[k], condemned, warm)
		}
	}

	cfg := workload.NewDefaultConfig()
	cfg.SFCLenMin, cfg.SFCLenMax = 3, 16
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		net := cfg.Network(rng)
		req := cfg.Request(rng, 0, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: 1 + int(seed%2)})
		for _, obj := range []Objective{ObjectiveLogGain, ObjectivePaperCost} {
			fr, ref := newFlowRelax(inst, obj), newFlowRelaxRef(inst, obj)
			for b := 0; b < 25; b++ {
				lo, hi := make([]int, len(inst.Positions)), make([]int, len(inst.Positions))
				for i, p := range inst.Positions {
					hi[i] = rng.Intn(p.K + 1)
					if hi[i] > 0 && rng.Intn(3) == 0 {
						lo[i] = rng.Intn(hi[i] + 1)
					}
				}
				box := countBox{lo: lo, hi: hi}
				obj, counts, flows, feasible := fr.solve(lo, hi)
				sameAsReference(t, "random", box, obj, counts, flows, feasible, ref)
			}
		}
	}
}

// sameAsReference checks one box's answer against the reference's: the same
// feasibility, objective bits, count bits and flow bits.
func sameAsReference(t testing.TB, what string, box countBox, obj float64, counts []float64, flows [][]float64, feasible bool, ref flowRelaxRef) {
	t.Helper()
	wObj, wCounts, wFlows, wFeasible := ref.solve(box.lo, box.hi)
	if feasible != wFeasible || math.Float64bits(obj) != math.Float64bits(wObj) {
		t.Fatalf("%s box lo %v hi %v: feasible %v obj %v, reference %v %v", what, box.lo, box.hi, feasible, obj, wFeasible, wObj)
	}
	for i := range wCounts {
		if math.Float64bits(counts[i]) != math.Float64bits(wCounts[i]) {
			t.Fatalf("%s box lo %v hi %v: count %d = %v, reference %v", what, box.lo, box.hi, i, counts[i], wCounts[i])
		}
		for b := range wFlows[i] {
			if math.Float64bits(flows[i][b]) != math.Float64bits(wFlows[i][b]) {
				t.Fatalf("%s box lo %v hi %v: flow %d/%d = %v, reference %v", what, box.lo, box.hi, i, b, flows[i][b], wFlows[i][b])
			}
		}
	}
}

// walkCountTree runs solveCountBB's search on inst (node budget 100000, no
// deadline), hands visit every box it relaxes with the relaxation's answer,
// before the search reads it, and condemned every box the box bound prunes
// unrelaxed with its cut. It returns the finished search.
func walkCountTree(inst *Instance, obj Objective, visit func(box countBox, bound float64, counts []float64, flows [][]float64, feasible bool), condemned func(box countBox, cut float64)) *countBB {
	bb := newCountBB(inst, obj, 100000)
	bb.visit, bb.condemned = visit, condemned
	bb.solve()
	return bb
}

// FuzzFlowRelaxMatchesReference holds the mask search to the reference on
// instances far from the paper's sizes (fuzzRelaxInstance). Every random
// box, solved in turn on one relaxation (its scratch reused), must equal the
// reference's answer bit for bit under both objectives.
func FuzzFlowRelaxMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(70), uint8(70), uint8(1))
	f.Add(int64(2), uint8(65), uint8(78), uint8(1))
	f.Add(int64(3), uint8(79), uint8(79), uint8(2))
	f.Add(int64(4), uint8(12), uint8(8), uint8(0))
	f.Add(int64(5), uint8(0), uint8(0), uint8(0))
	f.Add(int64(6), uint8(30), uint8(63), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nPos, nNode, hops uint8) {
		rng := rand.New(rand.NewSource(seed))
		inst := fuzzRelaxInstance(rng, nPos, nNode, hops)
		for _, obj := range []Objective{ObjectiveLogGain, ObjectivePaperCost} {
			fr, ref := newFlowRelax(inst, obj), newFlowRelaxRef(inst, obj)
			for b := 0; b < 8; b++ {
				lo, hi := randomBox(rng, inst, b == 0)
				bound, counts, flows, feasible := fr.solve(lo, hi)
				sameAsReference(t, "fuzz", countBox{lo: lo, hi: hi}, bound, counts, flows, feasible, ref)
			}
		}
	})
}

// FuzzBoxBoundHolds holds the box bound (flowRelax.condemns) to the
// relaxation it stands in for: on every feasible random box of
// fuzzRelaxInstance's instances, under both objectives, it must not condemn
// the box at any cut below the relaxation's objective. When tight is odd,
// one position's bins also get a residual a hair (1e-8 to 9.1e-7 MHz) below
// one instance of its demand, and the box asks exactly one instance of it:
// phase 1 then routes short of the lower bound yet counts the box feasible,
// leaving the other positions more room than the lower bound's demand
// suggests. The two tight seeds on six- and seven-cloudlet networks fail a
// bound that drops phase 1's slack; a bound that subtracts the lower
// bounds' demand twice fails on most seeds.
func FuzzBoxBoundHolds(f *testing.F) {
	f.Add(int64(1), uint8(70), uint8(70), uint8(1), uint8(0))
	f.Add(int64(3), uint8(79), uint8(79), uint8(2), uint8(1))
	f.Add(int64(4), uint8(12), uint8(8), uint8(0), uint8(0))
	f.Add(int64(5), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(6), uint8(30), uint8(63), uint8(1), uint8(1))
	f.Add(int64(2), uint8(20), uint8(6), uint8(2), uint8(1))
	f.Add(int64(8), uint8(14), uint8(5), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nPos, nNode, hops, tight uint8) {
		rng := rand.New(rand.NewSource(seed))
		inst := fuzzRelaxInstance(rng, nPos, nNode, hops)
		for _, obj := range []Objective{ObjectiveLogGain, ObjectivePaperCost} {
			fr := newFlowRelax(inst, obj)
			for b := 0; b < 8; b++ {
				lo, hi := randomBox(rng, inst, b == 0)
				boundHolds(t, fr, lo, hi)
			}
		}
		if tight%2 == 0 {
			return
		}
		p := rng.Intn(len(inst.Positions))
		if inst.Positions[p].K == 0 {
			return
		}
		short := *inst
		short.Residual = slices.Clone(inst.Residual)
		lo, hi := make([]int, len(inst.Positions)), make([]int, len(inst.Positions))
		for i, q := range inst.Positions {
			hi[i] = q.K
		}
		lo[p], hi[p] = 1, 1
		pos := &inst.Positions[p]
		room := pos.Func.Demand - (1e-8 + 9e-7*rng.Float64())
		sum := 0.0
		for _, u := range pos.Bins {
			sum += inst.Residual[u]
		}
		for _, u := range pos.Bins {
			short.Residual[u] = room * inst.Residual[u] / sum
		}
		for _, obj := range []Objective{ObjectiveLogGain, ObjectivePaperCost} {
			boundHolds(t, newFlowRelax(&short, obj), lo, hi)
		}
	})
}

// boundHolds fails t when the box bound condemns the feasible box [lo, hi]
// at the largest cut below its relaxation's objective.
func boundHolds(t *testing.T, fr *flowRelax, lo, hi []int) {
	t.Helper()
	obj, _, _, feasible := fr.solve(lo, hi)
	if feasible && fr.condemns(lo, hi, math.Nextafter(obj, math.Inf(-1))) {
		t.Fatalf("box lo %v hi %v: the box bound condemns a relaxation of %v", lo, hi, obj)
	}
}

// fuzzRelaxInstance draws an instance far from the paper's sizes: up to 80
// positions over networks of up to 81 cloudlets, so position and bin masks
// both run to two words, at hop bounds 1–3 and scarce, uneven residuals.
func fuzzRelaxInstance(rng *rand.Rand, nPos, nNode, hops uint8) *Instance {
	n := 2 + int(nNode)%80
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	for k := 0; k < n/4; k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v)
		}
	}
	caps := make([]float64, n)
	res := make([]float64, n)
	for v := range caps {
		if rng.Intn(20) > 0 {
			caps[v] = float64(100 + rng.Intn(800))
			res[v] = caps[v] * (0.2 + 0.8*rng.Float64())
		}
	}
	cat := mec.NewCatalog([]mec.FunctionType{
		{Name: "a", Demand: 50, Reliability: 0.6},
		{Name: "b", Demand: 100, Reliability: 0.8},
		{Name: "c", Demand: 150, Reliability: 0.9},
		{Name: "d", Demand: 210, Reliability: 0.97},
	})
	net := mec.NewNetwork(g, caps, cat).Fork(res)
	sfc := make([]int, 1+int(nPos)%80)
	for i := range sfc {
		sfc[i] = rng.Intn(cat.Size())
	}
	req := mec.NewRequest(0, sfc, 0.99, 0, n-1)
	req.Primaries = make([]int, len(sfc))
	for i := range req.Primaries {
		req.Primaries[i] = rng.Intn(n)
	}
	return NewInstance(net, req, Params{L: 1 + int(hops)%min(3, n-1)})
}

// randomBox draws a box of inst: each upper bound K (full) or uniform in
// [0, K], and about a third of the positions with a lower bound uniform in
// [0, hi].
func randomBox(rng *rand.Rand, inst *Instance, full bool) (lo, hi []int) {
	lo, hi = make([]int, len(inst.Positions)), make([]int, len(inst.Positions))
	for i, p := range inst.Positions {
		hi[i] = p.K
		if !full {
			hi[i] = rng.Intn(p.K + 1)
		}
		if hi[i] > 0 && rng.Intn(3) == 0 {
			lo[i] = rng.Intn(hi[i] + 1)
		}
	}
	return lo, hi
}
