package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/reliability"
	"repro/internal/workload"
)

// refTrimToExpectation is the recount-per-removal trim that
// Result.trimToExpectation replaced, kept verbatim as the parity reference:
// every removal recounts all positions from PerBin and re-evaluates
// inst.achieved and LogGain from scratch.
func refTrimToExpectation(r *Result, inst *Instance) {
	rho := inst.Req.Expectation
	if !reliability.MeetsExpectation(inst.achieved(r.countsOf()), rho) {
		return
	}
	for {
		best := -1
		bestGain := 0.0
		counts := r.countsOf()
		for i, p := range inst.Positions {
			n := counts[i]
			if n == 0 {
				continue
			}
			g := reliability.LogGain(p.Func.Reliability, n)
			if best < 0 || g < bestGain {
				best = i
				bestGain = g
			}
		}
		if best < 0 {
			return
		}
		counts[best]--
		if !reliability.MeetsExpectation(inst.achieved(counts), rho) {
			return
		}
		m := r.PerBin[best]
		worstU, worstC := -1, 0
		for u, c := range m {
			if c > worstC || (c == worstC && worstU >= 0 && u < worstU) {
				worstU, worstC = u, c
			}
		}
		if worstU < 0 {
			return
		}
		if m[worstU] == 1 {
			delete(m, worstU)
		} else {
			m[worstU]--
		}
	}
}

func clonePerBin(perBin []map[int]int) []map[int]int {
	out := make([]map[int]int, len(perBin))
	for i, m := range perBin {
		out[i] = make(map[int]int, len(m))
		for u, c := range m {
			out[i][u] = c
		}
	}
	return out
}

// withExpectation returns a shallow copy of inst whose request asks for rho.
func withExpectation(inst *Instance, rho float64) *Instance {
	cp := *inst
	req := *inst.Req
	req.Expectation = rho
	cp.Req = &req
	return &cp
}

// checkTrimParity trims a copy of perBin with both implementations at inst's
// expectation and requires identical placements and bit-identical
// reliability.
func checkTrimParity(t *testing.T, name string, inst *Instance, perBin []map[int]int) {
	t.Helper()
	got := &Result{PerBin: clonePerBin(perBin)}
	want := &Result{PerBin: clonePerBin(perBin)}
	got.trimToExpectation(inst)
	refTrimToExpectation(want, inst)
	if !reflect.DeepEqual(got.PerBin, want.PerBin) {
		t.Fatalf("%s: PerBin %v, reference %v", name, got.PerBin, want.PerBin)
	}
	got.finalize(inst)
	want.finalize(inst)
	if math.Float64bits(got.Reliability) != math.Float64bits(want.Reliability) {
		t.Fatalf("%s: reliability %v, reference %v", name, got.Reliability, want.Reliability)
	}
}

// trimParityInstances samples Fig. 1 (SFC lengths 2..12) and Fig. 3
// (residual fractions 1/16..1) trials as the experiments harness does.
func trimParityInstances() (names []string, insts []*Instance) {
	sample := func(cfg workload.Config, seed int64, id, length int) *Instance {
		rng := rand.New(rand.NewSource(seed))
		net := cfg.Network(rng)
		req := cfg.Request(rng, id, net.Catalog().Size())
		if length > 0 {
			req = cfg.RequestWithLength(rng, id, length, net.Catalog().Size())
		}
		workload.PlacePrimariesRandom(net, req, rng)
		return NewInstance(net, req, Params{L: cfg.HopBound})
	}
	for length := 2; length <= 12; length += 2 {
		for trial := 0; trial < 3; trial++ {
			names = append(names, fmt.Sprintf("fig1-len%d-trial%d", length, trial))
			insts = append(insts, sample(workload.NewDefaultConfig(),
				42*1_000_003+int64(length)*10_007+int64(trial), trial, length))
		}
	}
	for idx, f := range []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1} {
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = f
		for trial := 0; trial < 3; trial++ {
			names = append(names, fmt.Sprintf("fig3-%d-trial%d", idx, trial))
			insts = append(insts, sample(cfg, 42*1_000_003+int64(200+idx)*10_007+int64(trial), trial, 0))
		}
	}
	return names, insts
}

// TestTrimToExpectationMatchesReference pins the count-once trim to the
// recount-per-removal reference: each solver's untrimmed placement (solved
// at ρ = 1, where the trim is a no-op) is trimmed back to the sampled ρ and
// to a ladder of other expectations by both implementations.
func TestTrimToExpectationMatchesReference(t *testing.T) {
	names, insts := trimParityInstances()
	runners := solverRunners()
	for k, inst := range insts {
		full := withExpectation(inst, 1)
		for _, solver := range []string{"ILP", "Heuristic", "Greedy", "Randomized"} {
			res, err := runners[solver](full)
			if err != nil {
				t.Fatalf("%s on %s: %v", solver, names[k], err)
			}
			for _, rho := range []float64{inst.Req.Expectation, 0.9, 0.99, 0.999, 0.9999} {
				checkTrimParity(t, fmt.Sprintf("%s/%s/rho=%v", names[k], solver, rho),
					withExpectation(inst, rho), res.PerBin)
			}
		}
	}

	// A position holding more backups than its item schedule K: the gain of
	// its last backup lies beyond Gains and falls back to LogGain.
	// Position 1's backups compete with it, so a wrong fallback gain changes
	// which position the trim takes from.
	inst := smallInstance(0.85)
	over := inst.Positions[0].K + 3
	perBin := []map[int]int{{inst.Positions[0].Bins[0]: over}, {inst.Positions[1].Bins[0]: 3}}
	checkTrimParity(t, "count-above-K", inst, perBin)

	// The very first removal breaks ρ: ρ is exactly the placement's
	// reliability, so the trim must leave it untouched.
	inst = smallInstance(0.9)
	perBin = []map[int]int{{inst.Positions[0].Bins[0]: 1}, {inst.Positions[1].Bins[0]: 1}}
	tight := withExpectation(inst, inst.achieved([]int{1, 1}))
	checkTrimParity(t, "first-removal-breaks", tight, perBin)
	res := &Result{PerBin: clonePerBin(perBin)}
	res.trimToExpectation(tight)
	if !reflect.DeepEqual(res.PerBin, perBin) {
		t.Fatalf("first-removal-breaks: trim changed %v to %v", perBin, res.PerBin)
	}
}
