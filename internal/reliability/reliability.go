// Package reliability implements the reliability calculus of Section 3 of
// the paper: accumulated VNF reliability under redundant instance placement,
// the item cost function of Eq. (3)/(4), the log-gain weights the exact ILP
// objective uses, and the budget transform C = -log ρ.
//
// Throughout, logarithms are natural; the paper's analysis is base-agnostic
// (Eq. (2) holds for any base), and using one base consistently preserves
// every comparison.
package reliability

import (
	"fmt"
	"math"
)

// Accumulated returns R(r, k) = 1 - (1-r)^(k+1): the reliability of a
// function with one primary instance and k secondary instances, each of
// reliability r (the paper's identical-reliability assumption, Eq. (1)).
func Accumulated(r float64, k int) float64 {
	checkReliability(r)
	if k < 0 {
		panic(fmt.Sprintf("reliability: negative backup count %d", k))
	}
	return 1 - math.Pow(1-r, float64(k+1))
}

// Increment returns ΔR(r,k) = R(r,k) - R(r,k-1) = r·(1-r)^k, the reliability
// added by the k-th secondary instance (k >= 1) or by the primary itself
// (k = 0, ΔR = r).
func Increment(r float64, k int) float64 {
	checkReliability(r)
	if k < 0 {
		panic(fmt.Sprintf("reliability: negative backup count %d", k))
	}
	return r * math.Pow(1-r, float64(k))
}

// ItemCost is the paper's cost function (Eq. 3/4):
//
//	c(f, k, ·) = -log(R(f,k) - R(f,k-1)) = -log(r·(1-r)^k)
//
// for k >= 1, and c(f, 0, ·) = -log R(f,0) = -log r for the primary item.
// Lemma 4.1: costs are positive (for r < 1/e·… strictly, see note) and
// strictly increasing in k. For r close to 1 the k=0 cost approaches 0 and
// increments approach +Inf; callers must treat r == 1 as "no backups useful".
func ItemCost(r float64, k int) float64 {
	checkReliability(r)
	if k < 0 {
		panic(fmt.Sprintf("reliability: negative item index %d", k))
	}
	if k == 0 {
		return -math.Log(r)
	}
	return -math.Log(Increment(r, k))
}

// LogGain returns w(r,k) = log R(r,k) - log R(r,k-1) > 0 for k >= 1: the
// improvement of the k-th secondary instance in log-reliability space. Gains
// are strictly decreasing in k (diminishing returns), which makes prefix
// placements optimal — the exact-objective analogue of Lemma 4.1/4.2.
func LogGain(r float64, k int) float64 {
	checkReliability(r)
	if k < 1 {
		panic(fmt.Sprintf("reliability: LogGain needs k >= 1, got %d", k))
	}
	// log(R_k) - log(R_{k-1}) as the difference of two Logs. A log1p form
	// would be more accurate for tiny gains, but every item weight the
	// solvers use (and the solver goldens pin) is these exact bits.
	q := math.Pow(1-r, float64(k))
	// R_k = 1 - q(1-r), R_{k-1} = 1 - q
	rk := 1 - q*(1-r)
	rk1 := 1 - q
	if rk1 <= 0 {
		panic("reliability: zero accumulated reliability")
	}
	return math.Log(rk) - math.Log(rk1)
}

// ChainReliability returns Π_i R(r_i, k_i) for a service function chain with
// per-function reliabilities rs and backup counts ks (len(ks) == len(rs)).
func ChainReliability(rs []float64, ks []int) float64 {
	if len(rs) != len(ks) {
		panic(fmt.Sprintf("reliability: %d reliabilities but %d backup counts", len(rs), len(ks)))
	}
	u := 1.0
	for i, r := range rs {
		u *= Accumulated(r, ks[i])
	}
	return u
}

// PrimaryChainReliability returns Π_i r_i, the reliability of the chain with
// primaries only.
func PrimaryChainReliability(rs []float64) float64 {
	u := 1.0
	for _, r := range rs {
		checkReliability(r)
		u *= r
	}
	return u
}

// SurvivorReliability returns the attained reliability of one chain position
// with s surviving instances (primary and secondaries counted together):
// 1 - (1-r)^s. Unlike Accumulated, s counts total live instances — s = 0
// (every replica destroyed) yields reliability 0, the partial-failure regime
// a live node crash produces.
func SurvivorReliability(r float64, s int) float64 {
	checkReliability(r)
	if s < 0 {
		panic(fmt.Sprintf("reliability: negative survivor count %d", s))
	}
	if s == 0 {
		return 0
	}
	return 1 - math.Pow(1-r, float64(s))
}

// ChainSurvivorReliability returns u_j = Π_i (1 - (1-r_i)^s_i) for a chain
// whose position i retains s_i live instances after failures. Any position
// with zero survivors zeroes the chain (the function cannot run at all).
func ChainSurvivorReliability(rs []float64, survivors []int) float64 {
	if len(rs) != len(survivors) {
		panic(fmt.Sprintf("reliability: %d reliabilities but %d survivor counts", len(rs), len(survivors)))
	}
	u := 1.0
	for i, r := range rs {
		s := SurvivorReliability(r, survivors[i])
		if s == 0 {
			return 0
		}
		u *= s
	}
	return u
}

// Budget converts a reliability expectation ρ into the paper's cost budget
// C = -log ρ. ρ = 1 gives C = 0 (expectation only met by perfect
// reliability); ρ must lie in (0, 1].
func Budget(rho float64) float64 {
	if rho <= 0 || rho > 1 || math.IsNaN(rho) {
		panic(fmt.Sprintf("reliability: expectation %v out of (0,1]", rho))
	}
	return -math.Log(rho)
}

// MeetsExpectation reports whether achieved reliability u satisfies the
// expectation ρ up to a relative tolerance that absorbs float rounding.
func MeetsExpectation(u, rho float64) bool {
	return u >= rho*(1-1e-12)
}

// BackupsToReach returns the minimum k such that R(r,k) >= target, or -1 if
// the target is unreachable for this r (target >= 1 with r < 1 needs k = ∞).
// Used by capacity-planning examples.
func BackupsToReach(r, target float64) int {
	checkReliability(r)
	if target <= 0 {
		return 0
	}
	if target > 1 {
		return -1
	}
	if r >= 1 {
		return 0
	}
	if target >= 1 {
		return -1
	}
	// 1 - (1-r)^(k+1) >= target  ⇔  (k+1)·log(1-r) <= log(1-target)
	k := math.Ceil(math.Log(1-target)/math.Log(1-r)) - 1
	if k < 0 {
		k = 0
	}
	return int(k)
}

func checkReliability(r float64) {
	if r <= 0 || r > 1 || math.IsNaN(r) {
		panic(fmt.Sprintf("reliability: value %v out of (0,1]", r))
	}
}
