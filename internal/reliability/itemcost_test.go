package reliability_test

import (
	"math/rand"
	"testing"

	"repro/internal/reliability"
	"repro/internal/workload"
)

// maxScheduleK bounds the item index the monotonicity checks reach: past any
// schedule an instance builds (64 capped; uncapped ones stop at the slots).
const maxScheduleK = 200

// nonDecreasing reports the first k at which costs[k] < costs[k-1], or -1.
// A +Inf tail is non-decreasing.
func nonDecreasing(costs []float64) int {
	for k := 1; k < len(costs); k++ {
		if costs[k] < costs[k-1] {
			return k
		}
	}
	return -1
}

// TestItemCostsNonDecreasing checks the precondition of Algorithm 2's grouped
// matching rounds (matching.Group): item costs never decrease in k (Lemma
// 4.1/6.1 in floating point), on a grid of 1e5 reliabilities in (0, 1) and
// on every catalog schedule the figure sweeps and the serving configuration
// build.
func TestItemCostsNonDecreasing(t *testing.T) {
	const grid = 100_000
	costs := make([]float64, maxScheduleK+1)
	for i := 1; i <= grid; i++ {
		r := float64(i) / (grid + 1)
		for k := range costs {
			costs[k] = reliability.ItemCost(r, k)
		}
		if k := nonDecreasing(costs); k >= 0 {
			t.Fatalf("r=%v: ItemCost(r,%d)=%v < ItemCost(r,%d)=%v", r, k, costs[k], k-1, costs[k-1])
		}
	}

	// Catalogs as the serving commands sample them (default config, seeds
	// 1–16) and as `experiments -seed 42 -trials 40` does, trial t of a point
	// on network seed 42·1_000_003 + offset + t: Fig. 1 lengths, Fig. 2
	// reliability intervals, Fig. 3 residual fractions, the hop and
	// objective ablations.
	check := func(name string, cfg workload.Config, seed int64) {
		cat := cfg.Network(rand.New(rand.NewSource(seed))).Catalog()
		for id := 0; id < cat.Size(); id++ {
			_, costs := cat.ItemSchedule(id, maxScheduleK)
			if k := nonDecreasing(costs); k >= 0 {
				t.Fatalf("%s seed %d type %d (r=%v): cost %d decreases", name, seed, id, cat.Type(id).Reliability, k+1)
			}
		}
	}
	def := workload.NewDefaultConfig()
	for seed := int64(1); seed <= 16; seed++ {
		check("serving", def, seed)
	}
	type point struct {
		name string
		cfg  workload.Config
		off  int64
	}
	var points []point
	for length := int64(2); length <= 20; length += 2 {
		points = append(points, point{"fig1", def, length * 10_007})
	}
	for idx, iv := range []struct{ lo, hi float64 }{{0.55, 0.65}, {0.65, 0.75}, {0.75, 0.85}, {0.85, 0.95}} {
		cfg := workload.NewDefaultConfig()
		cfg.ReliabilityMin, cfg.ReliabilityMax = iv.lo, iv.hi
		points = append(points, point{"fig2", cfg, int64(100+idx) * 10_007})
	}
	for idx := int64(0); idx < 5; idx++ {
		points = append(points, point{"fig3", def, (200 + idx) * 10_007})
	}
	for l := int64(1); l <= 4; l++ {
		points = append(points, point{"hops", def, (300 + l) * 10_007})
	}
	for _, length := range []int64{4, 8, 12} {
		points = append(points, point{"objective", def, length * 20_011})
	}
	for _, p := range points {
		for trial := int64(0); trial < 40; trial++ {
			check(p.name, p.cfg, 42*1_000_003+p.off+trial)
		}
	}
}
