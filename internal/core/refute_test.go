package core

import (
	"math"
	"slices"
	"testing"
)

// fig1SlowestTrials are the 100-trial Fig. 1 seed-42 sweep's slowest ILP
// trials beside the solver golden's and fig1LargestTrees; with those two
// lists they are BenchmarkCountBBHard's twelve Fig. 1 trials.
var fig1SlowestTrials = []struct{ length, trial int }{{20, 89}, {14, 89}, {12, 58}, {18, 48}, {20, 52}}

// packQuery is one query the pack oracle's greedy pass does not settle, on
// the component sub-instance it was asked on.
type packQuery struct {
	inst   *Instance
	counts []int
	budget int
}

// hardPackQueries runs the exact solver's count search on every
// multi-position component of BenchmarkCountBBHard's twelve Fig. 1 trials
// and collects, through packer.searched, every pack query that gets past the
// greedy pass: one list per component, in the order the search asked them.
// The refutation stage keeps certificates and refuted vectors from query to
// query, so a component's queries replay in order on one packer.
func hardPackQueries() [][]packQuery {
	_, insts := fig1TrialInstances(slices.Concat(hardFig1Trials, fig1LargestTrees, fig1SlowestTrials))
	var comps [][]packQuery
	for _, inst := range insts {
		for _, group := range splitComponents(inst) {
			if len(group) == 1 {
				continue
			}
			sub := subInstance(inst, group)
			var qs []packQuery
			bb := newCountBB(sub, ObjectiveLogGain, 0)
			bb.pack.searched = func(counts []int, budget int) {
				qs = append(qs, packQuery{sub, slices.Clone(counts), budget})
			}
			bb.solve()
			if len(qs) > 0 {
				comps = append(comps, qs)
			}
		}
	}
	return comps
}

// BenchmarkPackHard times the pack oracle alone on hardPackQueries: one op
// replays every query of every component on a fresh packer per component,
// at the budget the search asked. It reports the queries per op and how
// they ended: witnessed, refuted by the refutation stage (dominance, a
// certificate or the subgradient), refuted by the search, or dry (the
// budget ran out).
func BenchmarkPackHard(b *testing.B) {
	comps := hardPackQueries()
	b.ResetTimer()
	var queries, witnessed, byStage, bySearch, dry int
	for range b.N {
		for _, qs := range comps {
			pk := newPacker(qs[0].inst, nil)
			for _, q := range qs {
				pb, conclusive := pk.pack(q.counts, q.budget)
				queries++
				switch {
				case pb != nil:
					witnessed++
				case pk.byStage:
					byStage++
				case conclusive:
					bySearch++
				default:
					dry++
				}
			}
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(queries)/n, "queries/op")
	b.ReportMetric(float64(witnessed)/n, "witnessed/op")
	b.ReportMetric(float64(byStage)/n, "stage-refuted/op")
	b.ReportMetric(float64(bySearch)/n, "search-refuted/op")
	b.ReportMetric(float64(dry)/n, "dry/op")
}

// TestRefutationNeverDisprovesAWitness replays hardPackQueries through the
// pack oracle and holds the refutation stage against the depth-first search
// alone at packBudget:
//
//   - every refutation the stage makes there: the search must not find a
//     witness;
//   - every query the search does witness, put to a fresh stage (λ = d and
//     its subgradient steps), which must not refute it;
//   - the same query on a tight copy of its component, whose every residual
//     is the witness's load of that bin, so that the search fills each bin
//     to the last ulp (see tightCopy). Where the search packs the tight
//     copy, λ = d makes Σ_u K_u equal the right-hand side, and only the
//     capacity and comparison margins keep the stage from refuting it.
//
// Mutation notes: a greedy knapsack in place of fill (an under-estimate of
// K_u) fails the first check; bins without refuteMargin, and a comparison
// without it, fail the last.
func TestRefutationNeverDisprovesAWitness(t *testing.T) {
	refuted, witnessed, tight := 0, 0, 0
	for _, qs := range hardPackQueries() {
		inst := qs[0].inst
		pk, check := newPacker(inst, nil), newPacker(inst, nil)
		for _, q := range qs {
			pb, _ := pk.pack(q.counts, q.budget)
			switch {
			case pb != nil:
				witnessed++
				rf := newRefuter(inst, pk.demand)
				rf.begin()
				if rf.lagrange(q.counts) {
					t.Errorf("a fresh stage refutes %v, which the oracle packs: %s", q.counts, describePack(inst, q.counts))
				}
				tinst := tightCopy(inst, pb, pk.order)
				tpk := newPacker(tinst, nil)
				tpk.setQuery(q.counts, packBudget)
				if w, _ := tpk.search(); w == nil {
					continue
				}
				tight++
				rf = newRefuter(tinst, tpk.demand)
				rf.begin()
				if rf.lagrange(q.counts) {
					t.Errorf("the stage refutes %v on bins the search fills exactly: %s", q.counts, describePack(tinst, q.counts))
				}
			case pk.byStage:
				refuted++
				check.setQuery(q.counts, packBudget)
				if pb, _ := check.search(); pb != nil {
					t.Errorf("the stage refutes %v, which the search packs: %s", q.counts, describePack(inst, q.counts))
				}
			}
		}
	}
	if refuted == 0 || witnessed == 0 || tight == 0 {
		t.Fatalf("the corpus exercised %d stage refutations, %d witnesses and %d tight copies", refuted, witnessed, tight)
	}
}

// tightCopy returns inst with every bin's residual set to perBin's load of
// it, summed position by position in the search's order, then raised by the
// fewest ulps that let the search's sequential subtraction, in that order,
// fit every item.
func tightCopy(inst *Instance, perBin [][]int, order []int) *Instance {
	cp := *inst
	cp.Residual = make([]float64, len(inst.Residual))
	for _, u := range inst.BinSet {
		r := 0.0
		for _, i := range order {
			r += float64(countAt(inst, perBin, i, u)) * inst.Positions[i].Func.Demand
		}
		for !fitsInOrder(inst, perBin, order, u, r) {
			r = math.Nextafter(r, math.Inf(1))
		}
		cp.Residual[u] = r
	}
	return &cp
}

// fitsInOrder reports whether bin u, at residual r, takes perBin's items of
// it by sequential subtraction in the order order.
func fitsInOrder(inst *Instance, perBin [][]int, order []int, u int, r float64) bool {
	for _, i := range order {
		d := inst.Positions[i].Func.Demand
		for c := countAt(inst, perBin, i, u); c > 0; c-- {
			if r < d {
				return false
			}
			r -= d
		}
	}
	return true
}
