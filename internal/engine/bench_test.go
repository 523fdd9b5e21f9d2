package engine

import (
	"context"
	"math/rand"
	"testing"
)

// benchTrial is a small but non-trivial deterministic workload: enough rng
// draws and arithmetic that the pool machinery is not the whole benchmark,
// small enough that per-trial overhead is still visible.
func benchTrial(_ int, rng *rand.Rand) (float64, error) {
	s := 0.0
	for i := 0; i < 512; i++ {
		s += rng.Float64()
	}
	return s, nil
}

// BenchmarkRun is the baseline the fail-soft path is measured against.
func BenchmarkRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), 256, 4, nil, benchTrial); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPartialNoFailures measures RunPartial on the all-success path.
// The fail-soft machinery (per-trial recover, failure-slot bookkeeping) should
// stay within a few percent of Run — compare with BenchmarkRun.
func BenchmarkRunPartialNoFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, failures, err := RunPartial(context.Background(), 256, 4, nil, benchTrial, FailSoftOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(failures) != 0 {
			b.Fatalf("unexpected failures: %v", failures)
		}
	}
}
