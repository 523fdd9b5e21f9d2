package main

import (
	"fmt"
	"math"

	"repro/internal/mec"
	"repro/internal/serve"
)

// relTol is the oracles' relative tolerance (SNIPPETS.md approx idiom).
const relTol = 1e-9

// oracle re-derives what the server must have answered from the network the
// harness generated — the server only ever saw the scenario file.
type oracle struct {
	net  *mec.Network
	hop  int
	dist map[int][]int // hop distances from each cloudlet, filled on demand
}

func newOracle(net *mec.Network, hop int) *oracle {
	return &oracle{net: net, hop: hop, dist: make(map[int][]int)}
}

// chainReliability is u_j = Π_i (1 − (1−r_i)^(n_i+1)) for backup counts n.
func (o *oracle) chainReliability(sfc, counts []int) float64 {
	u := 1.0
	for i, f := range sfc {
		r := o.net.Catalog().Type(f).Reliability
		u *= 1 - math.Pow(1-r, float64(counts[i]+1))
	}
	return u
}

// check verifies one 200 answer: shape, u_j recomputed from the catalog and
// backup_counts, and every secondary on a cloudlet within l hops of its
// primary. Not safe for concurrent use (the distance memo); each client owns
// one.
func (o *oracle) check(sfc []int, resp *serve.AugmentResponse) error {
	n := len(sfc)
	if len(resp.Primaries) != n || len(resp.Secondaries) != n || len(resp.BackupCounts) != n {
		return fmt.Errorf("id %d: %d primaries, %d secondary lists, %d counts for an SFC of %d",
			resp.ID, len(resp.Primaries), len(resp.Secondaries), len(resp.BackupCounts), n)
	}
	for i, hosts := range resp.Secondaries {
		if resp.BackupCounts[i] != len(hosts) {
			return fmt.Errorf("id %d position %d: backup_counts %d but %d secondaries", resp.ID, i, resp.BackupCounts[i], len(hosts))
		}
		p := resp.Primaries[i]
		if p < 0 || p >= len(o.net.Capacity) || o.net.Capacity[p] <= 0 {
			return fmt.Errorf("id %d position %d: primary %d is not a cloudlet", resp.ID, i, p)
		}
		d, ok := o.dist[p]
		if !ok {
			d = o.net.G.HopDistances(p)
			o.dist[p] = d
		}
		for _, u := range hosts {
			if u < 0 || u >= len(d) || o.net.Capacity[u] <= 0 || d[u] < 0 || d[u] > o.hop {
				return fmt.Errorf("id %d position %d: secondary on %d is not a cloudlet within %d hops of primary %d", resp.ID, i, u, o.hop, p)
			}
		}
	}
	if want := o.chainReliability(sfc, resp.BackupCounts); !approx(resp.Reliability, want, relTol) {
		return fmt.Errorf("id %d: reliability %.12f, recomputed %.12f", resp.ID, resp.Reliability, want)
	}
	return nil
}

// session is one live placement as the client saw it.
type session struct {
	id          int
	sfc         []int
	primaries   []int
	secondaries [][]int
}

func sessionOf(sfc []int, resp *serve.AugmentResponse) session {
	return session{id: resp.ID, sfc: sfc, primaries: resp.Primaries, secondaries: resp.Secondaries}
}

// checkLedger verifies capacity conservation at the end of a repetition:
// every cloudlet's residual equals its capacity minus the demand of the
// still-live placements (primaries and secondaries).
func (o *oracle) checkLedger(live []session, cloudlets []serve.CloudletState) error {
	used := make(map[int]float64)
	for _, s := range live {
		for i, f := range s.sfc {
			d := o.net.Catalog().Type(f).Demand
			if s.primaries[i] >= 0 { // -1: destroyed by a node failure
				used[s.primaries[i]] += d
			}
			for _, u := range s.secondaries[i] {
				used[u] += d
			}
		}
	}
	if len(cloudlets) != len(o.net.Cloudlets()) {
		return fmt.Errorf("state lists %d cloudlets, scenario has %d", len(cloudlets), len(o.net.Cloudlets()))
	}
	for _, c := range cloudlets {
		want := o.net.Capacity[c.ID] - used[c.ID]
		if !approx(c.Capacity, o.net.Capacity[c.ID], relTol) || math.Abs(c.Residual-want) > 1e-6*o.net.Capacity[c.ID] {
			return fmt.Errorf("cloudlet %d: residual %.6f, capacity − live demand = %.6f", c.ID, c.Residual, want)
		}
	}
	return nil
}
