package main

import (
	"math"
	"sort"
)

// beyond is how many samples must lie above a reported percentile: a p95
// needs 200 samples, a p99 needs 1,000 (choosing-metrics guide, section 1).
const beyond = 10

// quantile returns the exact nearest-rank p-quantile of sorted (ascending).
// ok is false when fewer than `beyond` samples lie above it, or sorted is
// empty; the value is still the nearest-rank order statistic.
func quantile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], p <= 0.5 || n-rank >= beyond
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is (max−min)/median, the per-metric repeatability printed beside
// every median-of-repetitions; 0 for fewer than two values or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

// approx reports whether a and b agree to relative tolerance tol (absolute
// near zero): |a−b| ≤ tol·max(1,|a|,|b|).
func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
