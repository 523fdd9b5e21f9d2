package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/workload"
)

// The solver-output golden pins every registered algorithm's result on a
// fixed instance set, bit for bit: reliability and objective as raw float64
// bits, the placement as an order-independent fingerprint, and the search
// shape (nodes, LP pivots). The perf work on the pack oracle, the count
// branch-and-bound, and the simplex must not move any of these. Regenerate
// (only on an intentional semantic change) with:
//
//	go test ./internal/core -run TestSolverGolden -update-core-golden
var updateCoreGolden = flag.Bool("update-core-golden", false, "rewrite testdata/solver_golden.json from the current solvers")

type solverGoldenRecord struct {
	Instance     string  `json:"instance"`
	Solver       string  `json:"solver"`
	RelBits      uint64  `json:"rel_bits"`
	ObjBits      uint64  `json:"obj_bits"`
	PerBinHash   uint64  `json:"per_bin_hash"`
	Nodes        int     `json:"nodes"`
	LPIterations int     `json:"lp_iterations"`
	Proven       bool    `json:"proven"`
	Reliability  float64 `json:"reliability"` // readable mirror
}

// perBinFingerprint hashes a placement independent of map iteration order.
func perBinFingerprint(perBin []map[int]int) uint64 {
	h := fnv.New64a()
	for i, m := range perBin {
		keys := make([]int, 0, len(m))
		for u := range m {
			keys = append(keys, u)
		}
		sort.Ints(keys)
		fmt.Fprintf(h, "|%d:", i)
		for _, u := range keys {
			fmt.Fprintf(h, "%d=%d,", u, m[u])
		}
	}
	return h.Sum64()
}

// goldenInstances samples exactly like the benchmark pool (same seeds, same
// lengths), so the pinned outputs cover the hard pack-oracle search paths the
// figure benchmarks exercise, not just easy instances.
func goldenInstances() (names []string, insts []*Instance) {
	for _, length := range []int{2, 8, 14} {
		for i := 0; i < 16; i++ {
			cfg := workload.NewDefaultConfig()
			rng := rand.New(rand.NewSource(1000 + int64(length) + int64(i)))
			net := cfg.Network(rng)
			// The benchmark pool draws a variable-length request before the
			// fixed-length one; the extra draw advances the rng, so it is
			// load-bearing for reproducing the exact same instances.
			_ = cfg.Request(rng, i, net.Catalog().Size())
			req := cfg.RequestWithLength(rng, i, length, net.Catalog().Size())
			workload.PlacePrimariesRandom(net, req, rng)
			names = append(names, fmt.Sprintf("len%d-seed%d", length, i))
			insts = append(insts, NewInstance(net, req, Params{L: cfg.HopBound}))
		}
	}
	hardNames, hardInsts := hardFig1Instances()
	return append(names, hardNames...), append(insts, hardInsts...)
}

// hardFig1Trials are Fig. 1 seed-42 trials whose count trees run to thousands
// of nodes: pack-oracle budgets run dry and the relaxed-tolerance schedule
// fires (length 20 trials 23 and 27 end unproven), which the benchmark-pool
// instances above never reach.
var hardFig1Trials = []struct{ length, trial int }{{20, 23}, {20, 27}, {16, 30}, {16, 31}, {14, 35}}

// hardFig1Instances samples hardFig1Trials exactly as the experiments
// harness samples a Fig. 1 trial (seed 42, point index = SFC length).
func hardFig1Instances() (names []string, insts []*Instance) {
	cfg := workload.NewDefaultConfig()
	for _, h := range hardFig1Trials {
		rng := rand.New(rand.NewSource(42*1_000_003 + int64(h.length)*10_007 + int64(h.trial)))
		net := cfg.Network(rng)
		req := cfg.RequestWithLength(rng, h.trial, h.length, net.Catalog().Size())
		workload.PlacePrimariesRandom(net, req, rng)
		names = append(names, fmt.Sprintf("fig1-len%d-trial%d", h.length, h.trial))
		insts = append(insts, NewInstance(net, req, Params{L: cfg.HopBound}))
	}
	return names, insts
}

const solverGoldenPath = "testdata/solver_golden.json"

func TestSolverGolden(t *testing.T) {
	names, insts := goldenInstances()
	var got []solverGoldenRecord
	for k, inst := range insts {
		for _, name := range []string{"ILP", "Randomized", "Heuristic", "Greedy"} {
			sv, ok := Get(name)
			if !ok {
				t.Fatalf("solver %q not registered", name)
			}
			rng := rand.New(rand.NewSource(9000 + int64(k)))
			res, err := sv.Solve(inst, rng)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, names[k], err)
			}
			got = append(got, solverGoldenRecord{
				Instance:     names[k],
				Solver:       name,
				RelBits:      math.Float64bits(res.Reliability),
				ObjBits:      math.Float64bits(res.Objective),
				PerBinHash:   perBinFingerprint(res.PerBin),
				Nodes:        res.Nodes,
				LPIterations: res.LPIterations,
				Proven:       res.Proven,
				Reliability:  res.Reliability,
			})
		}
	}

	if *updateCoreGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(solverGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), solverGoldenPath)
		return
	}

	data, err := os.ReadFile(solverGoldenPath)
	if err != nil {
		t.Fatalf("golden missing (run with -update-core-golden to create): %v", err)
	}
	var want []solverGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("%s/%s drifted:\n got %+v\nwant %+v", g.Instance, g.Solver, g, w)
		}
	}
}
