//go:build !race

package repro_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// maxServeILPAllocs is the served exact solve's allocation level: the mean
// over wireSolverPool's requests of what one ILP solve allocates, the trim
// back to ρ and the result included (BenchmarkServeILPSolve's allocs/op,
// 43 when the level was set; 64 while the per-bin counts were maps).
const maxServeILPAllocs = 44

// TestServeILPAllocs holds the served exact solve at its allocation level,
// so a change that brings back per-request work on components that close
// at once (a relaxation built only to confirm the upper corner, a copied
// witness, a trim that edits maps per removal) fails here rather than in a
// profile. The race detector allocates on its own account, hence the build
// tag.
func TestServeILPAllocs(t *testing.T) {
	pool := wireSolverPool()
	ilp, _ := core.Get("ILP")
	allocs := testing.AllocsPerRun(4, func() {
		for _, inst := range pool {
			if _, err := ilp.Solve(inst, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := allocs / float64(len(pool)); per > maxServeILPAllocs {
		t.Fatalf("served ILP solve allocates %.1f times per request, level is %d", per, maxServeILPAllocs)
	}
}

// maxServeFailsafeAllocs is the default serving solve's allocation level:
// the mean over wireDefaultPool's requests of what one Failsafe solve
// (Algorithm 2, Greedy behind it) allocates, the trim back to ρ and the
// result included (BenchmarkServeFailsafeSolve's allocs/op, 20 when the
// level was set; 32 while the per-bin counts were maps, 48 while each solve
// grew a fresh matching workspace and built a per-cloudlet usage map).
const maxServeFailsafeAllocs = 21

// TestServeFailsafeAllocs holds the default serving solve at its allocation
// level, so a change that brings back per-request work nothing reads (a
// matching workspace grown from zero, a map no caller reads) fails here
// rather than in a profile.
func TestServeFailsafeAllocs(t *testing.T) {
	pool := wireDefaultPool()
	failsafe, _ := core.Get("Failsafe")
	rng := rand.New(rand.NewSource(3))
	solveAll := func() {
		for _, inst := range pool {
			if _, err := failsafe.Solve(inst, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	solveAll() // warm the catalog's item schedules and the matcher pool
	if per := testing.AllocsPerRun(4, solveAll) / float64(len(pool)); per > maxServeFailsafeAllocs {
		t.Fatalf("served Failsafe solve allocates %.1f times per request, level is %d", per, maxServeFailsafeAllocs)
	}
}

// maxRandomizedBytes is Algorithm 1's allocation level on Fig. 1's longest
// chains: the mean bytes one Randomized solve allocates over
// BenchmarkFig1's length-20 pool. BenchmarkFig1/SFCLen20/Randomized's B/op
// was 88 KB when the level was set; this test, which collects garbage first,
// read 80–344 KB over 80 runs, as collections empty the tableau pool.
const maxRandomizedBytes = 500_000

// TestFig1RandomizedBytes holds Randomized's LP at its allocation level: the
// simplex tableau is built once, at its final width, in a backing array
// that solves reuse. A tableau allocated per solve (829 KB a solve on this
// pool), or each row built again as slack and then artificial columns join
// (2.0 MB), fails here rather than in a profile.
func TestFig1RandomizedBytes(t *testing.T) {
	pool := instancePool(workload.NewDefaultConfig(), 20, poolSize, 1020)
	randomized, _ := core.Get("Randomized")
	rng := rand.New(rand.NewSource(99))
	solveAll := func() {
		for _, inst := range pool {
			if _, err := randomized.Solve(inst, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	solveAll() // warm the catalog's item schedules and the neighborhood memo
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	solveAll()
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(pool))
	if per > maxRandomizedBytes {
		t.Fatalf("Randomized allocates %.0f B per solve on the Fig. 1 length-20 pool, level is %d", per, maxRandomizedBytes)
	}
}
