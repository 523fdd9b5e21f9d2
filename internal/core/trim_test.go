package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mec"
	"repro/internal/reliability"
	"repro/internal/workload"
)

// refTrimToExpectation is the recount-per-removal trim that
// Result.trimToExpectation replaced, kept as the parity reference (ported to
// dense rows): every removal recounts all positions from PerBin and
// re-evaluates inst.achieved and LogGain from scratch, and takes from the
// fullest bin, the lowest cloudlet ID on a tie. It leaves Counts recounted.
func refTrimToExpectation(r *Result, inst *Instance) {
	defer func() { r.Counts = rowSums(r.PerBin) }()
	rho := inst.Req.Expectation
	if !reliability.MeetsExpectation(inst.achieved(rowSums(r.PerBin)), rho) {
		return
	}
	for {
		best := -1
		bestGain := 0.0
		counts := rowSums(r.PerBin)
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
		row, bins := r.PerBin[best], inst.Positions[best].Bins
		worst := -1
		for b, c := range row {
			if c > 0 && (worst < 0 || c > row[worst] || c == row[worst] && bins[b] < bins[worst]) {
				worst = b
			}
		}
		if worst < 0 {
			return
		}
		row[worst]--
	}
}

// rowSums is each position's total over its dense row.
func rowSums(perBin [][]int) []int {
	counts := make([]int, len(perBin))
	for i, row := range perBin {
		counts[i] = sum(row)
	}
	return counts
}

func clonePerBin(perBin [][]int) [][]int {
	out := make([][]int, len(perBin))
	for i, row := range perBin {
		out[i] = slices.Clone(row)
	}
	return out
}

// dense lays a per-position cloudlet → count placement out as inst's dense
// rows.
func dense(inst *Instance, perBin []map[int]int) [][]int {
	out, _ := emptyPerBin(inst)
	for i, m := range perBin {
		for u, c := range m {
			b, ok := slices.BinarySearch(inst.Positions[i].Bins, u)
			if !ok {
				panic(fmt.Sprintf("cloudlet %d is not a bin of position %d", u, i))
			}
			out[i][b] = c
		}
	}
	return out
}

// countAt is position i's count on cloudlet u in the dense placement
// perBin, 0 when u is not one of its bins.
func countAt(inst *Instance, perBin [][]int, i, u int) int {
	if b, ok := slices.BinarySearch(inst.Positions[i].Bins, u); ok {
		return perBin[i][b]
	}
	return 0
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
func checkTrimParity(t *testing.T, name string, inst *Instance, perBin [][]int) {
	t.Helper()
	got := &Result{PerBin: clonePerBin(perBin), Counts: rowSums(perBin)}
	want := &Result{PerBin: clonePerBin(perBin)}
	got.trimToExpectation(inst)
	refTrimToExpectation(want, inst)
	if !reflect.DeepEqual(got.PerBin, want.PerBin) || !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatalf("%s: PerBin %v counts %v, reference %v counts %v", name, got.PerBin, got.Counts, want.PerBin, want.Counts)
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
	perBin := dense(inst, []map[int]int{{inst.Positions[0].Bins[0]: over}, {inst.Positions[1].Bins[0]: 3}})
	checkTrimParity(t, "count-above-K", inst, perBin)

	// The very first removal breaks ρ: ρ is exactly the placement's
	// reliability, so the trim must leave it untouched.
	inst = smallInstance(0.9)
	perBin = dense(inst, []map[int]int{{inst.Positions[0].Bins[0]: 1}, {inst.Positions[1].Bins[0]: 1}})
	tight := withExpectation(inst, inst.achieved([]int{1, 1}))
	checkTrimParity(t, "first-removal-breaks", tight, perBin)
	res := &Result{PerBin: clonePerBin(perBin), Counts: rowSums(perBin)}
	res.trimToExpectation(tight)
	if !reflect.DeepEqual(res.PerBin, perBin) {
		t.Fatalf("first-removal-breaks: trim changed %v to %v", perBin, res.PerBin)
	}
}

// TestTrimRoomyTiesMatchReference trims a roomy placement through more than
// a hundred removals in both implementations. Its two positions run the same
// function type, so their backups' gains tie at equal counts and the trim
// alternates between them, the lower position first; ρ stops it between
// the two removals of a pair, so the positions end one backup apart. Each
// position's backups sit on three bins of different loads, so the bin a
// removal takes from shows.
func TestTrimRoomyTiesMatchReference(t *testing.T) {
	net := buildNet([]float64{100000, 100000, 100000}, []mec.FunctionType{{Name: "a", Demand: 100, Reliability: 0.2}})
	req := mec.NewRequest(1, []int{0, 0}, 0.8, 0, 2)
	req.Primaries = []int{1, 1}
	inst := NewInstance(net, req, Params{L: 1})
	perBin := dense(inst, []map[int]int{{0: 30, 1: 20, 2: 14}, {0: 9, 1: 31, 2: 21}})
	checkTrimParity(t, "roomy-ties", inst, perBin)

	want := &Result{PerBin: clonePerBin(perBin)}
	refTrimToExpectation(want, inst)
	before, after := rowSums(perBin), want.Counts
	if removed := before[0] + before[1] - after[0] - after[1]; removed <= 100 {
		t.Fatalf("roomy-ties: the reference removes %d backups, want more than 100", removed)
	}
	if after[0] != after[1]-1 {
		t.Fatalf("roomy-ties: the reference ends at counts %v, want the first position one below the second", after)
	}
}

// refRemoveFromFullest is the one-removal-per-scan removeFromFullest that
// the water-fill replaced, kept as the parity reference (ported to a dense
// row, whose bins ascend): each removal takes from the fullest bin, the
// lowest cloudlet ID on a tie.
func refRemoveFromFullest(row []int, n int) {
	for ; n > 0; n-- {
		w := -1
		for b, c := range row {
			if c > 0 && (w < 0 || c > row[w]) {
				w = b
			}
		}
		row[w]--
	}
}

// TestRemoveFromFullestMatchesReference removes every possible number of
// instances, from none to all, from random rows — few bins, some empty, so
// levels tie often — with the water-fill and the one-at-a-time reference,
// which must leave identical rows.
func TestRemoveFromFullestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		row := make([]int, 1+rng.Intn(8))
		for b := range row {
			if rng.Intn(4) > 0 {
				row[b] = 1 + rng.Intn(1+rng.Intn(12))
			}
		}
		for n := 0; n <= sum(row); n++ {
			got, want := slices.Clone(row), slices.Clone(row)
			removeFromFullest(got, n)
			refRemoveFromFullest(want, n)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: removing %d from %v left %v, reference %v", trial, n, row, got, want)
			}
		}
	}
}
