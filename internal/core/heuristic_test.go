package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/matching"
	"repro/internal/mec"
	"repro/internal/reliability"
	"repro/internal/workload"
)

// refSolveHeuristic is SolveHeuristic as it was before rounds became
// matching groups: each round builds the edge list item by item and solves
// it with the edge-form matching.MinCostMax. Kept verbatim, save that one
// call and the dense counts it records into, as the parity reference.
func refSolveHeuristic(inst *Instance, opt HeuristicOptions) (*Result, error) {
	start := time.Now()
	res := newResult("Heuristic", inst)
	if inst.ExpectationMet() || inst.TotalItems() == 0 {
		res.finalize(inst)
		res.Runtime = time.Since(start)
		return res, nil
	}

	residual := append([]float64(nil), inst.Residual...)
	placed := res.Counts // next item index per position
	rho := inst.Req.Expectation

	// Per-call workspace, truncated each round. binIndex[u] is u's left-node
	// index this round, or -1; only last round's bins are reset.
	type item struct {
		pos int
		k   int // 1-based item index
	}
	var (
		items []item
		edges []matching.Edge
		bins  []int
	)
	binIndex := make([]int, len(inst.Residual))
	for u := range binIndex {
		binIndex[u] = -1
	}

	achieved := inst.InitialReliability
	round := 0
	// The loop terminates: every round either breaks or matches at least one
	// of the finitely many items (Σ K_i), and a matched item is never offered
	// again.
	for {
		round++
		if reliability.MeetsExpectation(achieved, rho) {
			break
		}

		// Build G_l: left = bins (cloudlets with any residual), right =
		// candidate items. Per position only the next |bins| items can
		// possibly match this round (each bin takes at most one), so later
		// items are left out of the graph without changing the matching.
		for _, u := range bins {
			binIndex[u] = -1
		}
		items, edges, bins = items[:0], edges[:0], bins[:0]
		for _, u := range inst.BinSet {
			if residual[u] > 0 {
				binIndex[u] = len(bins)
				bins = append(bins, u)
			}
		}
		for i := range inst.Positions {
			p := &inst.Positions[i]
			window := len(p.Bins)
			if opt.LiteralItems {
				window = p.K
			}
			for k := placed[i] + 1; k <= p.K && k <= placed[i]+window; k++ {
				itemID := len(items)
				items = append(items, item{pos: i, k: k})
				for _, u := range p.Bins {
					bi := binIndex[u]
					if bi < 0 || residual[u] < p.Func.Demand {
						continue
					}
					edges = append(edges, matching.Edge{
						L:    bi,
						R:    itemID,
						Cost: p.Costs[k-1],
					})
				}
			}
		}
		if len(edges) == 0 {
			break
		}

		m := matching.MinCostMax(len(bins), len(items), edges)
		if m.Cardinality == 0 {
			break
		}
		for bi, it := range m.MatchL {
			if it < 0 {
				continue
			}
			u := bins[bi]
			p := &inst.Positions[items[it].pos]
			residual[u] -= p.Func.Demand
			b, _ := slices.BinarySearch(p.Bins, u)
			res.PerBin[items[it].pos][b]++
			placed[items[it].pos]++
		}
		achieved = inst.achieved(placed)
	}

	res.Rounds = round
	res.trimToExpectation(inst)
	res.finalize(inst)
	res.Runtime = time.Since(start)
	return res, nil
}

// checkHeuristicParity solves inst with SolveHeuristic and the reference and
// requires the same placement, counts, rounds and usage, and the same
// reliability bits. It returns SolveHeuristic's result.
func checkHeuristicParity(t *testing.T, name string, inst *Instance, opt HeuristicOptions) *Result {
	t.Helper()
	got, err := SolveHeuristic(inst, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := refSolveHeuristic(inst, opt)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	switch {
	case !reflect.DeepEqual(got.PerBin, want.PerBin):
		t.Fatalf("%s: PerBin %v, reference %v", name, got.PerBin, want.PerBin)
	case !reflect.DeepEqual(got.Counts, want.Counts):
		t.Fatalf("%s: Counts %v, reference %v", name, got.Counts, want.Counts)
	case got.Rounds != want.Rounds:
		t.Fatalf("%s: %d rounds, reference %d", name, got.Rounds, want.Rounds)
	case !reflect.DeepEqual(got.Usage, want.Usage):
		t.Fatalf("%s: Usage %+v, reference %+v", name, got.Usage, want.Usage)
	case math.Float64bits(got.Reliability) != math.Float64bits(want.Reliability):
		t.Fatalf("%s: reliability %v, reference %v", name, got.Reliability, want.Reliability)
	}
	return got
}

// checkHeuristicParityAll checks inst as given, and each of its multi-position
// components at ρ = 1 — the instances the exact solver seeds its incumbent
// from.
func checkHeuristicParityAll(t *testing.T, name string, inst *Instance, opt HeuristicOptions) *Result {
	t.Helper()
	res := checkHeuristicParity(t, name, inst, opt)
	for ci, group := range splitComponents(inst) {
		if len(group) > 1 {
			checkHeuristicParity(t, fmt.Sprintf("%s/component%d", name, ci), subInstance(inst, group), opt)
		}
	}
	return res
}

// TestHeuristicMatchesReference pins Algorithm 2's grouped rounds to the
// edge-list rounds they replaced, bit for bit. Mutation notes: a matcher that
// scans each group's frontier but not its matched prefix fails here, and so
// does one that takes the first minimum it finds instead of the smallest
// (distance, column).
func TestHeuristicMatchesReference(t *testing.T) {
	// The serving benchmark's shapes (capacity scale, hop bound, chain
	// lengths), each on its network (residual 1.0, network seed 1): a stream
	// of requests, each admitted — primaries consumed where they fit, then
	// the Heuristic's secondaries committed — so capacity runs short as the
	// stream goes on. ρ, Uncapped and LiteralItems vary by request.
	for _, sh := range []struct {
		name                  string
		scale                 float64
		l, chainMin, chainMax int
	}{
		{"wire-default", 20, 1, 3, 6},
		{"wire-durable", 20, 1, 2, 3},
		{"wire-solver", 60, 2, 8, 12},
		{"inproc-waves", 64, 1, 3, 6},
	} {
		cfg := workload.NewDefaultConfig()
		cfg.HopBound = sh.l
		cfg.ResidualFraction = 1.0
		cfg.CapacityMin *= sh.scale
		cfg.CapacityMax *= sh.scale
		net := cfg.Network(rand.New(rand.NewSource(1)))
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40; i++ {
			req := cfg.RequestWithLength(rng, i, sh.chainMin+rng.Intn(sh.chainMax-sh.chainMin+1), net.Catalog().Size())
			req.Expectation = []float64{0.9, 0.95, 0.99, 0.999}[i%4]
			workload.PlacePrimariesRandom(net, req, rng)
			for j, v := range req.Primaries {
				if d := net.Catalog().Type(req.SFC[j]).Demand; net.Residual(v) >= d {
					net.Consume(v, d)
				}
			}
			// Never both Uncapped and LiteralItems: a literal window over
			// hundreds of uncapped items reaches costs that overflow to +Inf,
			// which both forms reject as invalid edges.
			uncapped := i%5 == 4
			inst := NewInstance(net, req, Params{L: sh.l, Uncapped: uncapped})
			res := checkHeuristicParityAll(t, fmt.Sprintf("%s/req%d", sh.name, i), inst, HeuristicOptions{LiteralItems: i%3 == 2 && !uncapped})
			if err := res.Commit(net); err != nil {
				t.Fatalf("%s/req%d: %v", sh.name, i, err)
			}
		}
	}

	// Figure instances, sampled as the experiments harness samples them:
	// Fig. 1 lengths 2..20, Fig. 2 reliability intervals, Fig. 3 residual
	// fractions down to 1/16.
	sample := func(name string, cfg workload.Config, seed int64, length, trial int) {
		rng := rand.New(rand.NewSource(seed))
		net := cfg.Network(rng)
		var req *mec.Request
		if length > 0 {
			req = cfg.RequestWithLength(rng, trial, length, net.Catalog().Size())
		} else {
			req = cfg.Request(rng, trial, net.Catalog().Size())
		}
		workload.PlacePrimariesRandom(net, req, rng)
		inst := NewInstance(net, req, Params{L: cfg.HopBound, Uncapped: trial%4 == 3})
		checkHeuristicParityAll(t, name, inst, HeuristicOptions{LiteralItems: trial%3 == 1})
	}
	for length := 2; length <= 20; length++ {
		for trial := 0; trial < 6; trial++ {
			sample(fmt.Sprintf("fig1-len%d-trial%d", length, trial), workload.NewDefaultConfig(),
				42*1_000_003+int64(length)*10_007+int64(trial), length, trial)
		}
	}
	for idx, iv := range []struct{ lo, hi float64 }{{0.55, 0.65}, {0.65, 0.75}, {0.75, 0.85}, {0.85, 0.95}} {
		cfg := workload.NewDefaultConfig()
		cfg.ReliabilityMin, cfg.ReliabilityMax = iv.lo, iv.hi
		for trial := 0; trial < 6; trial++ {
			sample(fmt.Sprintf("fig2-%d-trial%d", idx, trial), cfg, 42*1_000_003+int64(100+idx)*10_007+int64(trial), 0, trial)
		}
	}
	for idx, f := range []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1} {
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = f
		for trial := 0; trial < 6; trial++ {
			sample(fmt.Sprintf("fig3-%d-trial%d", idx, trial), cfg, 42*1_000_003+int64(200+idx)*10_007+int64(trial), 0, trial)
		}
	}
}
