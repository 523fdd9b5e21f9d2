// Package core implements the paper's contribution: the service reliability
// augmentation problem for an admitted request (Section 3.2) and its three
// solvers — the exact ILP (Section 4), the randomized LP-rounding algorithm
// (Section 5, Algorithm 1), and the matching-based heuristic (Section 6,
// Algorithm 2) — plus a greedy baseline and a small-case exact reference used
// by the tests.
//
// An Instance snapshots everything the solvers need: for each chain position
// the primary's cloudlet, the allowed bins N_l^+(primary) restricted to
// cloudlets, per-bin slot counts, and the item cost/gain schedules. Solvers
// never mutate the network; committing a solution to the residual ledger is
// the caller's choice (see Result.Commit).
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/mec"
	"repro/internal/reliability"
)

// gainFloor is the smallest log-gain an item may contribute before the item
// schedule is truncated: beyond it, additional backups cannot change any
// reported reliability within float64 resolution, so carrying the items only
// inflates solver work. Fidelity note: the paper's K_i is purely
// capacity-bounded; truncation at gainFloor never changes an achieved
// reliability, only skips provably pointless placements. Set Uncapped in
// Params to recover the paper's literal K_i.
const gainFloor = 1e-12

// hardKCap bounds the item schedule per function even when Uncapped
// reasoning would allow more (64 backups of one function is already far past
// float64 saturation for any r >= 1e-3).
const hardKCap = 64

// Params configures instance construction.
type Params struct {
	// L is the hop bound l: secondaries must sit within L hops of their
	// primary's cloudlet (1 <= L <= |V|-1).
	L int
	// Uncapped keeps the paper's literal capacity-bounded K_i instead of
	// truncating items whose gain is below float64 resolution.
	Uncapped bool
}

// Position is one chain position of the instance: function f_i, its primary
// cloudlet, and the placement structure around it. Gains and Costs are the
// catalog's item schedule for f_i (mec.Catalog.ItemSchedule), shared with
// every instance built on that catalog: they are read-only.
type Position struct {
	Index    int              // chain position i (0-based)
	Func     mec.FunctionType // the function type f_i
	Primary  int              // cloudlet v hosting the primary instance
	Bins     []int            // allowed cloudlets: N_l^+(v) ∩ cloudlets with >= one slot
	Slots    []int            // Slots[b]: how many instances of f_i fit in Bins[b]
	Held     int              // secondaries already in place (Request.Held), not the solver's to place
	K        int              // number of candidate secondary items (k = 1..K)
	Gains    []float64        // Gains[k-1] = w(r_i, Held+k), strictly decreasing
	Costs    []float64        // Costs[k-1] = c(f_i, Held+k) (paper Eq. 3), increasing
	PrimCost float64          // c(f_i, 0) = -log r_i (paper Eq. 4)
}

// Instance is a fully materialized augmentation problem for one request.
type Instance struct {
	Net       *mec.Network
	Req       *mec.Request
	Params    Params
	Positions []Position
	// Residual[u] is the residual capacity snapshot the instance was built
	// against (solvers budget against this, not the live ledger).
	Residual []float64
	// BinSet is the union of all positions' bins, ascending.
	BinSet []int
	// InitialReliability is Π r_i with primaries (and held secondaries) only.
	InitialReliability float64
	// Budget is C = -log ρ_j (0 when ρ = 1).
	Budget float64
	// Deadline, when non-zero, is the instant a solve of this instance must
	// return by: the count branch-and-bound returns its incumbent with
	// Proven=false once it passes, and a Fallback chain starts no further
	// stage after it. The zero value means no deadline — the node budget alone
	// bounds the search, so the result is a pure function of the instance.
	Deadline time.Time
}

// NewInstance builds the augmentation instance for an admitted request whose
// primaries are already placed. It panics if the request has no primaries or
// the hop bound is out of range.
func NewInstance(net *mec.Network, req *mec.Request, p Params) *Instance {
	if len(req.Primaries) != req.Len() {
		panic(fmt.Sprintf("core: request %d has %d primaries for SFC length %d", req.ID, len(req.Primaries), req.Len()))
	}
	if p.L < 1 || p.L > net.G.N()-1 {
		panic(fmt.Sprintf("core: hop bound %d out of [1,%d]", p.L, net.G.N()-1))
	}
	cat := net.Catalog()
	inst := &Instance{
		Net:       net,
		Req:       req,
		Params:    p,
		Positions: make([]Position, len(req.SFC)),
		Residual:  net.ResidualSnapshot(),
		Budget:    reliability.Budget(req.Expectation),
	}
	initial := 1.0
	nBins := 0
	for i, ftID := range req.SFC {
		ft := cat.Type(ftID)
		v := req.Primaries[i]
		// Memoized on the network: repeated NewInstance calls on one network
		// (every trial, every solver) reuse the same bounded-BFS result.
		nbrs := net.NeighborsWithinPlus(v, p.L)
		pos := &inst.Positions[i]
		*pos = Position{
			Index:    i,
			Func:     ft,
			Primary:  v,
			Bins:     make([]int, 0, len(nbrs)),
			Slots:    make([]int, 0, len(nbrs)),
			PrimCost: -math.Log(ft.Reliability),
		}
		if req.Held != nil {
			pos.Held = req.Held[i]
		}
		initial *= pos.initial()
		for _, u := range nbrs {
			if net.Capacity[u] <= 0 {
				continue
			}
			slots := int(math.Floor(inst.Residual[u] / ft.Demand))
			if slots <= 0 {
				continue
			}
			pos.Bins = append(pos.Bins, u)
			pos.Slots = append(pos.Slots, slots)
			pos.K += slots
		}
		if cap := max(kCap(ft.Reliability, p.Uncapped)-pos.Held, 0); pos.K > cap {
			pos.K = cap
		}
		gains, costs := cat.ItemSchedule(ftID, pos.Held+pos.K)
		pos.Gains, pos.Costs = gains[pos.Held:], costs[pos.Held:]
		nBins += len(pos.Bins)
	}
	inst.InitialReliability = initial
	binSet := make([]int, 0, nBins)
	for _, pos := range inst.Positions {
		binSet = append(binSet, pos.Bins...)
	}
	slices.Sort(binSet)
	inst.BinSet = slices.Compact(binSet)
	return inst
}

// kCap returns the item-schedule truncation point for a function with
// instance reliability r (see gainFloor).
func kCap(r float64, uncapped bool) int {
	if r >= 1 {
		return 0 // a perfectly reliable function gains nothing from backups
	}
	if uncapped {
		return math.MaxInt32
	}
	k := reliability.BackupsToReach(r, 1-gainFloor)
	if k < 0 || k > hardKCap {
		return hardKCap
	}
	return k
}

// TotalItems returns N = Σ_i K_i, the item count of the BMCGAP reduction.
func (inst *Instance) TotalItems() int {
	n := 0
	for _, p := range inst.Positions {
		n += p.K
	}
	return n
}

// ExpectationMet reports whether the primaries alone already reach ρ
// (Algorithm 1/2 line 2: exit immediately in that case).
func (inst *Instance) ExpectationMet() bool {
	return reliability.MeetsExpectation(inst.InitialReliability, inst.Req.Expectation)
}

// accumulated is R_i with n secondaries placed by the solver beside the
// held ones.
func (p *Position) accumulated(n int) float64 {
	return reliability.Accumulated(p.Func.Reliability, p.Held+n)
}

// initial is R_i before the solver places anything: r_i, or R(r_i, Held).
func (p *Position) initial() float64 {
	if p.Held == 0 {
		return p.Func.Reliability
	}
	return p.accumulated(0)
}

// achieved computes the chain reliability for per-position backup counts.
func (inst *Instance) achieved(counts []int) float64 {
	u := 1.0
	for i, p := range inst.Positions {
		u *= p.accumulated(counts[i])
	}
	return u
}

// load sums the per-cloudlet MHz consumed by a per-position, per-bin
// placement, indexed by node and summed in position order (used for
// capacity-usage stats and violation checks).
func (inst *Instance) load(perBin [][]int) []float64 {
	load := make([]float64, len(inst.Residual))
	for i, row := range perBin {
		p := &inst.Positions[i]
		for b, cnt := range row {
			if cnt > 0 {
				load[p.Bins[b]] += p.Func.Demand * float64(cnt)
			}
		}
	}
	return load
}
