package core

import (
	"fmt"
	"math"
	"slices"
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
}

// Result is the outcome of one solver run on one instance.
type Result struct {
	Algorithm string
	Instance  *Instance
	// PerBin[i][b] is the number of secondary instances of chain position i
	// placed on cloudlet Instance.Positions[i].Bins[b] (the paper's n_{i,u}
	// over N_l^+(v_i), in ascending cloudlet order). One allocation backs
	// every position's row.
	PerBin [][]int
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

// finalize fills the derived fields of a result from PerBin and Counts,
// which the solver keeps in step.
func (r *Result) finalize(inst *Instance) {
	r.Instance = inst
	r.Reliability = inst.achieved(r.Counts)
	r.MetExpectation = reliability.MeetsExpectation(r.Reliability, inst.Req.Expectation)

	load := inst.load(r.PerBin)
	r.Usage = UsageStats{Min: 1e308}
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
// (repeats meaning multiple instances on one cloudlet), ascending because
// each position's bins are. A position without secondaries reads nil.
func (r *Result) Secondaries() [][]int {
	out := make([][]int, len(r.PerBin))
	flat := make([]int, 0, sum(r.Counts))
	for i, row := range r.PerBin {
		start := len(flat)
		for b, c := range row {
			for ; c > 0; c-- {
				flat = append(flat, r.Instance.Positions[i].Bins[b])
			}
		}
		if len(flat) > start {
			out[i] = flat[start:len(flat):len(flat)]
		}
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
	for i, row := range r.PerBin {
		p := &r.Instance.Positions[i]
		for b, c := range row {
			if c == 0 {
				continue
			}
			u, need := p.Bins[b], p.Func.Demand*float64(c)
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
// The decisions run on counts and factors alone: factors[i] holds
// Accumulated(r_i, n_i), and multiplying them in position order is exactly
// inst.achieved, so every decision matches a recount bit for bit. That
// product only falls as backups are removed, so the removals that keep ρ are
// a prefix of the decision sequence, and only its boundary needs the exact
// product. The log-reliability estimate (each removal costs its gain) skips
// ahead to near the boundary; the exact product then steps back while it
// misses ρ and forward while the next removal keeps it, which lands on the
// boundary whatever the estimate's rounding. The removals are applied to
// PerBin and Counts at the end, position by position (see removeFromFullest):
// which bin loses an instance of position i depends only on PerBin[i], so
// removing them in one batch leaves the rows that removing each at its
// decision would.
func (r *Result) trimToExpectation(inst *Instance) {
	rho := inst.Req.Expectation
	L := len(inst.Positions)
	counts := r.Counts
	factors := make([]float64, L)
	for i, p := range inst.Positions {
		factors[i] = p.accumulated(counts[i])
	}
	u := product(factors)
	if !reliability.MeetsExpectation(u, rho) {
		return
	}
	kept := append(make([]int, 0, L), counts...)
	taken := make([]int, 0, sum(counts)) // positions in removal order
	// last[i] is the gain of position i's last kept backup (kept[i] > 0),
	// read once per count.
	last := make([]float64, L)
	set := func(i, n int) {
		if kept[i] = n; n > 0 {
			last[i] = inst.Positions[i].gain(n)
		}
	}
	for i, n := range counts {
		set(i, n)
	}
	// next is the position whose last backup has the smallest gain, the
	// lowest position on a tie, or -1 when none is left.
	next := func() (best int, gain float64) {
		best = -1
		for i, n := range kept {
			if n > 0 && (best < 0 || last[i] < gain) {
				best, gain = i, last[i]
			}
		}
		return best, gain
	}
	refresh := func(i int) {
		factors[i] = inst.Positions[i].accumulated(kept[i])
	}

	// Skip ahead while the estimate stays at or above ρ's threshold.
	est, floor := math.Log(u), math.Log(rho*(1-1e-12))
	for {
		best, g := next()
		if best < 0 || est-g < floor {
			break
		}
		est -= g
		set(best, kept[best]-1)
		taken = append(taken, best)
	}
	for i := range kept {
		if kept[i] != counts[i] {
			refresh(i)
		}
	}
	// Step back while ρ is missed (no removal at all meets it), then forward
	// while the next removal keeps it.
	for !reliability.MeetsExpectation(product(factors), rho) {
		best := taken[len(taken)-1]
		taken = taken[:len(taken)-1]
		set(best, kept[best]+1)
		refresh(best)
	}
	for {
		best, _ := next()
		if best < 0 {
			break
		}
		set(best, kept[best]-1)
		refresh(best)
		if !reliability.MeetsExpectation(product(factors), rho) {
			kept[best]++ // removing it would break the expectation; stop
			break
		}
	}
	for i, n := range counts {
		if n > kept[i] {
			removeFromFullest(r.PerBin[i], n-kept[i])
		}
	}
	r.Counts = kept
}

// removeFromFullest removes n instances from a position's row of bin counts
// as if one at a time, each from the bin holding the most (to free
// contention first; ties break on the lowest cloudlet ID, which is the lowest
// bin index since bins ascend, so results are deterministic), but in one pass
// over the final counts: removing from the fullest bin cuts the bins down
// level by level, so the result is every bin cut to the lowest level T whose
// cut removes at most n, less one more instance from each of the
// lowest-index bins at T until n are gone.
func removeFromFullest(row []int, n int) {
	cut := func(t int) (removed int) {
		for _, c := range row {
			removed += max(c-t, 0)
		}
		return removed
	}
	// cut is non-increasing in the level and cut(max) = 0 ≤ n: search for
	// the lowest level whose cut fits.
	lo, hi := 0, slices.Max(row)
	for lo < hi {
		if mid := (lo + hi) / 2; cut(mid) <= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	left := n - cut(lo)
	for b, c := range row {
		if c >= lo {
			// Fewer than the bins at level lo remain (cutting to lo-1 would
			// remove too many): they come from the lowest indices there.
			row[b] = lo
			if left > 0 {
				row[b]--
				left--
			}
		}
	}
}

// gain is LogGain(r_i, Held+n), read from the schedule when n is within it
// (NewInstance fills Gains[n-1] with exactly that value).
func (p *Position) gain(n int) float64 {
	if n <= len(p.Gains) {
		return p.Gains[n-1]
	}
	return reliability.LogGain(p.Func.Reliability, p.Held+n)
}

// product multiplies factors in order, as inst.achieved does.
func product(factors []float64) float64 {
	u := 1.0
	for _, f := range factors {
		u *= f
	}
	return u
}

// sum adds up a count vector.
func sum(counts []int) int {
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}
