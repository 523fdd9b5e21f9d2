// Package admission implements the initial admission framework of Section
// 4.1: placing the primary VNF instances of a request's SFC onto cloudlets
// before any reliability augmentation happens.
//
// Two strategies are provided. PlaceMaxReliability follows the technique of
// the paper's reference [15]: a layered DAG is built whose layer i holds the
// candidate cloudlets for function f_i, and a shortest path under -log
// reliability weights yields the maximum-reliability primary placement.
// PlaceRandom places each primary on a uniformly random cloudlet with enough
// residual capacity — this is what the paper's evaluation section actually
// does ("Each VNF instance in the primary SFC deployed randomly into
// cloudlets"), so the experiments default to it.
//
// Both strategies consume residual capacity for the primaries they place.
package admission

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mec"
)

// ErrNoCapacity is returned when some function of the SFC cannot be placed on
// any cloudlet with sufficient residual capacity.
var ErrNoCapacity = errors.New("admission: no cloudlet has capacity for a primary instance")

// PlaceRandom places each primary VNF instance of req on a uniformly random
// cloudlet that has residual capacity for it, consuming that capacity. On
// success req.Primaries is populated; on failure the ledger is unchanged.
//
// Candidates are the cloudlets in ascending node order, scanned into one
// buffer every position reuses. Each consumption saves the entry's residual
// before it; a failure writes those back in reverse order, so a cloudlet
// picked twice ends at its first before-value, and no copy of the whole
// ledger is taken.
func PlaceRandom(net *mec.Network, req *mec.Request, rng *rand.Rand) error {
	primaries := make([]int, 0, req.Len())
	var beforeBuf [16]float64
	before := beforeBuf[:0] // before[i]: primaries[i]'s residual before its consumption
	candidates := make([]int, 0, len(net.Capacity))
	for _, ftID := range req.SFC {
		demand := net.Catalog().Type(ftID).Demand
		candidates = candidates[:0]
		for v, c := range net.Capacity {
			if c > 0 && net.Residual(v) >= demand {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			for i := len(primaries) - 1; i >= 0; i-- {
				net.RestoreResidual(primaries[i], before[i])
			}
			return fmt.Errorf("%w (function type %d, demand %v)", ErrNoCapacity, ftID, demand)
		}
		v := candidates[rng.Intn(len(candidates))]
		before = append(before, net.Residual(v))
		net.Consume(v, demand)
		primaries = append(primaries, v)
	}
	req.Primaries = primaries
	return nil
}

// hopPenalty softly prefers consecutive primaries on nearby cloudlets when
// reliabilities tie (all VNF instances of f_i have the same reliability
// everywhere, so the -log r part of the path weight is placement-invariant;
// the penalty is small enough never to override a reliability difference).
const hopPenalty = 1e-9

// PlaceMaxReliability places the primaries via the layered-DAG shortest-path
// construction of Section 4.1 (after [15]): nodes are (chain position,
// cloudlet) pairs plus a source s_j and destination t_j; an arc into layer i
// carries weight -log r_i plus a vanishing hop penalty. The shortest s→t
// path is the maximum-reliability placement. Capacity is consumed per
// function along the chosen path; when a cloudlet lacks capacity for all the
// functions routed onto it, the placement retries with that cloudlet's
// per-layer candidacy reduced.
func PlaceMaxReliability(net *mec.Network, req *mec.Request) error {
	snap := net.ResidualSnapshot()
	banned := make(map[[2]int]bool) // (layer, cloudlet) pairs excluded after overdraft

	// Each failed attempt bans one (layer, cloudlet) pair, so this many
	// attempts exhaust them all.
	maxAttempt := req.Len()*len(net.Cloudlets()) + 1
	for attempt := 0; attempt <= maxAttempt; attempt++ {
		primaries, err := solveLayeredDAG(net, req, banned)
		if err != nil {
			net.RestoreResiduals(snap)
			return err
		}
		// Try to commit: consume capacity function by function.
		ok := true
		for i, v := range primaries {
			demand := net.Catalog().Type(req.SFC[i]).Demand
			if net.Residual(v) < demand {
				banned[[2]int{i, v}] = true
				ok = false
				break
			}
			net.Consume(v, demand)
		}
		if ok {
			req.Primaries = primaries
			return nil
		}
		net.RestoreResiduals(snap)
	}
	net.RestoreResiduals(snap)
	return fmt.Errorf("%w (layered-DAG retries exhausted)", ErrNoCapacity)
}

// solveLayeredDAG builds G_j and returns the cloudlet per chain position on
// the shortest path.
func solveLayeredDAG(net *mec.Network, req *mec.Request, banned map[[2]int]bool) ([]int, error) {
	cloudlets := net.Cloudlets()
	if len(cloudlets) == 0 {
		return nil, ErrNoCapacity
	}
	L := req.Len()
	// Node layout: 0 = source, 1 = destination, then L layers of cloudlets.
	nodeID := func(layer, ci int) int { return 2 + layer*len(cloudlets) + ci }
	d := graph.NewDAG(2 + L*len(cloudlets))

	// Precompute hop distances between cloudlets for the locality penalty.
	hop := make(map[int][]int, len(cloudlets))
	for _, v := range cloudlets {
		hop[v] = net.G.HopDistances(v)
	}
	srcHop := net.G.HopDistances(req.Source)

	for ci, v := range cloudlets {
		if banned[[2]int{0, v}] || net.Residual(v) < net.Catalog().Type(req.SFC[0]).Demand {
			continue
		}
		r0 := net.Catalog().Type(req.SFC[0]).Reliability
		w := -math.Log(r0) + hopPenalty*hopDistOrFar(srcHop, v)
		d.AddArc(0, nodeID(0, ci), w)
	}
	for layer := 0; layer+1 < L; layer++ {
		rNext := net.Catalog().Type(req.SFC[layer+1]).Reliability
		demNext := net.Catalog().Type(req.SFC[layer+1]).Demand
		for ci, u := range cloudlets {
			if banned[[2]int{layer, u}] {
				continue
			}
			for cj, v := range cloudlets {
				if banned[[2]int{layer + 1, v}] || net.Residual(v) < demNext {
					continue
				}
				w := -math.Log(rNext) + hopPenalty*hopDistOrFar(hop[u], v)
				d.AddArc(nodeID(layer, ci), nodeID(layer+1, cj), w)
			}
		}
	}
	dstHop := net.G.HopDistances(req.Destination)
	for ci, v := range cloudlets {
		if banned[[2]int{L - 1, v}] {
			continue
		}
		d.AddArc(nodeID(L-1, ci), 1, hopPenalty*hopDistOrFar(dstHop, v))
	}

	path, _, err := d.ShortestPathDAG(0, 1)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoCapacity, err)
	}
	if len(path) != L+2 {
		return nil, fmt.Errorf("admission: malformed path length %d for SFC length %d", len(path), L)
	}
	primaries := make([]int, L)
	for i, node := range path[1 : len(path)-1] {
		primaries[i] = cloudlets[(node-2)%len(cloudlets)]
	}
	return primaries, nil
}

// hopDistOrFar returns the hop distance to v, or a large finite stand-in for
// unreachable nodes so the penalty stays comparable.
func hopDistOrFar(dist []int, v int) float64 {
	if dist[v] < 0 {
		return 1e6
	}
	return float64(dist[v])
}

// InitialReliability returns Π r_i, the reliability the request achieves
// with primaries only (Section 3.1). It is placement-invariant under the
// paper's identical-reliability assumption but exposed here for reporting.
func InitialReliability(net *mec.Network, req *mec.Request) float64 {
	u := 1.0
	for _, ftID := range req.SFC {
		u *= net.Catalog().Type(ftID).Reliability
	}
	return u
}
