//go:build !race

package repro_test

import (
	"testing"

	"repro/internal/core"
)

// maxServeILPAllocs is the served exact solve's allocation level: the mean
// over wireSolverPool's requests of what one ILP solve allocates, the trim
// back to ρ and the result included (BenchmarkServeILPSolve's allocs/op,
// 68.4 when the level was set).
const maxServeILPAllocs = 69

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
