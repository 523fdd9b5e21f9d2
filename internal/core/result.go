package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/mec"
	"repro/internal/reliability"
)

// UsageStats summarizes per-cloudlet computing-capacity usage by the
// secondaries of one solution, as a ratio of the residual capacity the
// instance started with (Figures 1(b), 2(b), 3(b) of the paper). Ratios above
// 1.0 are capacity violations (possible for the randomized algorithm only).
type UsageStats struct {
	Avg, Min, Max float64
	PerCloudlet   map[int]float64
}

// Result is the outcome of one solver run on one instance.
type Result struct {
	Algorithm string
	Instance  *Instance
	// PerBin[i] maps cloudlet → number of secondary instances of chain
	// position i placed there.
	PerBin []map[int]int
	// Counts[i] = n_i, total secondaries for chain position i.
	Counts []int
	// Reliability is the achieved chain reliability Π R_i.
	Reliability float64
	// MetExpectation reports Reliability >= ρ (within float tolerance).
	MetExpectation bool
	// Violated reports whether any cloudlet's residual capacity is exceeded.
	Violated bool
	// Usage summarizes capacity usage over the instance's bin set.
	Usage UsageStats
	// Runtime is the wall-clock solver time.
	Runtime time.Duration
	// Proven is set by the ILP solver when optimality was proven.
	Proven bool
	// Rounds is the number of matching rounds the heuristic ran (Theorem
	// 6.2 analyses this count; zero for other algorithms).
	Rounds int
	// Objective is the solver's internal objective value (diagnostics).
	Objective float64
	// LPIterations is the total simplex pivots spent on LP relaxations
	// (the Randomized solver's one relaxation solve; zero for solvers that
	// never call the simplex).
	LPIterations int
	// Nodes is the number of branch-and-bound nodes the ILP explored,
	// summed over components (zero for the other algorithms).
	Nodes int
	// ServedBy names the fallback-chain stage that produced this result
	// (set by core.Fallback only; empty for direct solver calls).
	ServedBy string
}

// finalize fills the derived fields of a result from PerBin.
func (r *Result) finalize(inst *Instance) {
	r.Instance = inst
	r.Counts = r.countsOf()
	r.Reliability = inst.achieved(r.Counts)
	r.MetExpectation = reliability.MeetsExpectation(r.Reliability, inst.Req.Expectation)

	load := inst.load(r.PerBin)
	r.Usage = UsageStats{Min: 1e308, PerCloudlet: make(map[int]float64)}
	r.Violated = false
	if len(inst.BinSet) == 0 {
		r.Usage.Min = 0
		return
	}
	sum := 0.0
	for _, u := range inst.BinSet {
		res := inst.Residual[u]
		ratio := 0.0
		if res > 0 {
			ratio = load[u] / res
		} else if load[u] > 0 {
			ratio = 2 // loaded a zero-residual cloudlet: maximal violation
		}
		r.Usage.PerCloudlet[u] = ratio
		sum += ratio
		if ratio < r.Usage.Min {
			r.Usage.Min = ratio
		}
		if ratio > r.Usage.Max {
			r.Usage.Max = ratio
		}
		if load[u] > res*(1+1e-9) {
			r.Violated = true
		}
	}
	r.Usage.Avg = sum / float64(len(inst.BinSet))
}

// Secondaries expands PerBin into explicit per-position cloudlet lists
// (repeats meaning multiple instances on one cloudlet), sorted for
// determinism.
func (r *Result) Secondaries() [][]int {
	out := make([][]int, len(r.PerBin))
	for i, m := range r.PerBin {
		var list []int
		for u, c := range m {
			for j := 0; j < c; j++ {
				list = append(list, u)
			}
		}
		sort.Ints(list)
		out[i] = list
	}
	return out
}

// Placement converts the result into a validated mec.Placement.
func (r *Result) Placement() *mec.Placement {
	return &mec.Placement{Request: r.Instance.Req, Secondaries: r.Secondaries()}
}

// Commit consumes the solution's capacity from the live network ledger.
// It fails (without partial effects) if the solution violates capacity —
// randomized solutions with violations cannot be committed.
func (r *Result) Commit(net *mec.Network) error {
	if r.Violated {
		return fmt.Errorf("core: refusing to commit a capacity-violating %s solution", r.Algorithm)
	}
	snap := net.ResidualSnapshot()
	for i, m := range r.PerBin {
		demand := r.Instance.Positions[i].Func.Demand
		for u, c := range m {
			need := demand * float64(c)
			if net.Residual(u) < need-1e-9 {
				net.RestoreResiduals(snap)
				return fmt.Errorf("core: ledger changed since instance snapshot: cloudlet %d has %v, need %v", u, net.Residual(u), need)
			}
			net.Consume(u, min64(need, net.Residual(u)))
		}
	}
	return nil
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// trimToExpectation removes surplus placements while keeping the achieved
// reliability at or above ρ: repeatedly drop the placement whose removal
// costs the least log-reliability, as long as the expectation stays met.
// This realizes the paper's "augment until the expectation is reached"
// semantics without wasting cloudlet capacity on overshoot. No-op when the
// expectation is not met (every placement is then useful).
//
// Counts are taken once and kept in step with PerBin; factors[i] holds
// Accumulated(r_i, n_i) and only the decremented position's is refreshed.
// Multiplying the factors in position order is exactly inst.achieved, so
// every decision matches a recount bit for bit.
func (r *Result) trimToExpectation(inst *Instance) {
	rho := inst.Req.Expectation
	counts := r.countsOf()
	factors := make([]float64, len(counts))
	for i, p := range inst.Positions {
		factors[i] = reliability.Accumulated(p.Func.Reliability, counts[i])
	}
	if !reliability.MeetsExpectation(product(factors), rho) {
		return
	}
	for {
		// Find the position whose last backup has the smallest gain.
		best := -1
		bestGain := 0.0
		for i := range inst.Positions {
			n := counts[i]
			if n == 0 {
				continue
			}
			g := inst.Positions[i].gain(n)
			if best < 0 || g < bestGain {
				best = i
				bestGain = g
			}
		}
		if best < 0 {
			return
		}
		counts[best]--
		factors[best] = reliability.Accumulated(inst.Positions[best].Func.Reliability, counts[best])
		if !reliability.MeetsExpectation(product(factors), rho) {
			return // removing it would break the expectation; stop
		}
		// Physically remove one instance of position best from some bin
		// (the most loaded one, to free contention first; ties break on the
		// lowest cloudlet ID so results are deterministic).
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

// gain is LogGain(r_i, n), read from the schedule when n is within it
// (NewInstance fills Gains[n-1] with exactly that value).
func (p *Position) gain(n int) float64 {
	if n <= len(p.Gains) {
		return p.Gains[n-1]
	}
	return reliability.LogGain(p.Func.Reliability, n)
}

// product multiplies factors in order, as inst.achieved does.
func product(factors []float64) float64 {
	u := 1.0
	for _, f := range factors {
		u *= f
	}
	return u
}

func (r *Result) countsOf() []int {
	counts := make([]int, len(r.PerBin))
	for i, m := range r.PerBin {
		for _, c := range m {
			counts[i] += c
		}
	}
	return counts
}
