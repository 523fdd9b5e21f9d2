package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestUpperCornerIsTheClosingRoot pins the count search's upper-corner
// shortcut to the root it replaces. Whenever the greedy pass packs a
// component's upper corner, the root relaxation's counts are that corner,
// the root's pack query returns the corner's witness, and the search ends
// proven in one node on it. The corner's value is the root bound bit for bit
// under the log-gain objective, and within 3 ulps under paper-cost (see
// DESIGN.md §8, "The upper corner"). The instances are sampledInstances':
// Fig. 1–3 trials and requests of the four serving shapes.
func TestUpperCornerIsTheClosingRoot(t *testing.T) {
	packed, open, drift := 0, 0, 0
	check := func(name string, inst *Instance) {
		t.Helper()
		for ci, group := range splitComponents(inst) {
			if len(group) < 2 {
				continue
			}
			sub := subInstance(inst, group)
			hi := make([]int, len(sub.Positions))
			for i, p := range sub.Positions {
				hi[i] = p.K
			}
			for _, obj := range []Objective{ObjectiveLogGain, ObjectivePaperCost} {
				where := fmt.Sprintf("%s/component%d/%v", name, ci, obj)
				bb := newCountBB(sub, obj, 0)
				if !bb.upperCorner(hi, bb.densityOrder()) {
					open++
					continue
				}
				packed++
				bound, counts, _, feasible := newFlowRelax(sub, obj).solve(make([]int, len(hi)), hi)
				if !feasible {
					t.Fatalf("%s: root infeasible", where)
				}
				for i, c := range counts {
					if math.Abs(c-float64(hi[i])) > 1e-7 {
						t.Fatalf("%s: root count %d is %v, corner %d", where, i, c, hi[i])
					}
				}
				// Paper-cost rewards are large (w dominates every cost), so the
				// ulp by which an item the relaxation routes in two pieces
				// misses its demand can show in the sum's last bits.
				ulps := int64(math.Float64bits(bound)) - int64(math.Float64bits(bb.incumbentVal))
				if ulps < -3 || ulps > 3 || obj == ObjectiveLogGain && ulps != 0 {
					t.Fatalf("%s: corner value %v, root bound %v", where, bb.incumbentVal, bound)
				}
				if ulps != 0 {
					drift++
				}
				if pb, _ := newPacker(sub, nil).pack(hi, packBudget); !reflect.DeepEqual(pb, bb.incumbent) {
					t.Fatalf("%s: corner witness %v, root witness %v", where, bb.incumbent, pb)
				}
				perBin, val, nodes, proven := solveCountBB(sub, obj, 0)
				if nodes != 1 || !proven || val != bb.incumbentVal || !reflect.DeepEqual(perBin, bb.incumbent) {
					t.Fatalf("%s: search took %d nodes (proven %v) for %v, corner is %v", where, nodes, proven, val, bb.incumbentVal)
				}
			}
		}
	}
	sampledInstances(10, 40, func(name string, inst *Instance, _ bool) { check(name, inst) })
	t.Logf("upper corner packed on %d component solves (%d paper-cost values off the root bound in the last bits), stayed open on %d", packed, drift, open)
	if packed == 0 || open == 0 {
		t.Fatalf("upper corner packed on %d component solves, open on %d: want both", packed, open)
	}
}
