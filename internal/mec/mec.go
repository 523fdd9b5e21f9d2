// Package mec models the mobile edge-cloud network of Section 3: an AP graph
// where a subset of APs host cloudlets with finite computing capacity, a
// catalog of network function types with per-type computing demand and VNF
// reliability, requests with service function chains and reliability
// expectations, and a residual-capacity ledger that records placements.
//
// Capacities and demands are in MHz, following the paper's experiment setup
// (cloudlets 4000–8000 MHz, functions 200–400 MHz).
package mec

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/reliability"
)

// FunctionType describes one entry of the network-function catalog ℱ.
type FunctionType struct {
	ID          int
	Name        string
	Demand      float64 // computing demand c(f) in MHz per VNF instance
	Reliability float64 // reliability r of any single VNF instance, in (0,1]
}

// Catalog is the set ℱ of network function types.
type Catalog struct {
	types []FunctionType

	// sched[id] is type id's item schedule (see ItemSchedule), grown on
	// demand under schedMu and shared by every network and fork built on
	// the catalog.
	schedMu sync.RWMutex
	sched   []itemSchedule
}

// itemSchedule holds one function type's item weights for k = 1..len(gains).
// An array, once published, is never written again: growth replaces it.
type itemSchedule struct {
	gains, costs []float64
}

// NewCatalog builds a catalog, validating every entry.
func NewCatalog(types []FunctionType) *Catalog {
	c := &Catalog{
		types: append([]FunctionType(nil), types...),
		sched: make([]itemSchedule, len(types)),
	}
	for i := range c.types {
		ft := &c.types[i]
		ft.ID = i
		if ft.Demand <= 0 {
			panic(fmt.Sprintf("mec: function %q demand %v must be positive", ft.Name, ft.Demand))
		}
		if ft.Reliability <= 0 || ft.Reliability > 1 {
			panic(fmt.Sprintf("mec: function %q reliability %v out of (0,1]", ft.Name, ft.Reliability))
		}
		if ft.Name == "" {
			ft.Name = fmt.Sprintf("f%d", i)
		}
	}
	return c
}

// Size returns |ℱ|.
func (c *Catalog) Size() int { return len(c.types) }

// Type returns the function type with the given ID.
func (c *Catalog) Type(id int) FunctionType {
	if id < 0 || id >= len(c.types) {
		panic(fmt.Sprintf("mec: function type %d out of range [0,%d)", id, len(c.types)))
	}
	return c.types[id]
}

// ItemSchedule returns the weights of function type id's first k items:
// gains[j] = reliability.LogGain(r, j+1) and costs[j] =
// reliability.ItemCost(r, j+1), r being the type's reliability. They depend
// on nothing but r and the item index, so the catalog computes each entry
// once, lazily (a type's schedule grows the first time a caller asks for a
// longer one), and every instance on every network sharing the catalog
// reads the same arrays. The returned slices have len == cap == k and are
// shared: callers must not modify them. Safe for concurrent use.
func (c *Catalog) ItemSchedule(id, k int) (gains, costs []float64) {
	ft := c.Type(id)
	if k < 0 {
		panic(fmt.Sprintf("mec: negative item schedule length %d", k))
	}
	c.schedMu.RLock()
	s := c.sched[id]
	c.schedMu.RUnlock()
	if len(s.gains) < k {
		s = c.growSchedule(ft, k)
	}
	return s.gains[:k:k], s.costs[:k:k]
}

// growSchedule extends ft's schedule to at least k entries by building new
// arrays (copying the entries already computed) and swapping them in, so a
// slice handed out earlier never sees a write.
func (c *Catalog) growSchedule(ft FunctionType, k int) itemSchedule {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	old := c.sched[ft.ID]
	if len(old.gains) >= k {
		return old // another goroutine grew it meanwhile
	}
	s := itemSchedule{gains: make([]float64, k), costs: make([]float64, k)}
	copy(s.gains, old.gains)
	copy(s.costs, old.costs)
	for j := len(old.gains); j < k; j++ {
		s.gains[j] = reliability.LogGain(ft.Reliability, j+1)
		s.costs[j] = reliability.ItemCost(ft.Reliability, j+1)
	}
	c.sched[ft.ID] = s
	return s
}

// ResidualView is a read-only view over per-node residual capacity. Both the
// mutable Network ledger and immutable copy-on-write forks of it (see Fork)
// satisfy it, which lets serving layers hand solvers a frozen snapshot while
// the live ledger keeps evolving.
type ResidualView interface {
	// Residual returns the residual capacity C'_v of node v in MHz.
	Residual(v int) float64
	// NumNodes returns the number of APs covered by the view.
	NumNodes() int
}

// nbrMemo is the NeighborsWithinPlus memo, held behind a pointer so that
// every Fork of a network shares one canonical cache (the AP graph is
// immutable after construction, so entries are valid across all forks).
type nbrMemo struct {
	mu sync.RWMutex
	m  map[uint64][]int
}

// Network is an MEC network: the AP graph plus cloudlet capacities.
// Capacity[v] == 0 means AP v has no co-located cloudlet.
type Network struct {
	G        *graph.Graph
	Capacity []float64 // total computing capacity C_v per AP, MHz
	residual []float64 // current residual capacity C'_v
	catalog  *Catalog

	// memo memoizes NeighborsWithinPlus per (v, l): the hop-bounded
	// neighborhoods are re-queried for every request built on this network,
	// and the graph never changes after construction.
	memo *nbrMemo
}

var _ ResidualView = (*Network)(nil)

// NewNetwork wraps a graph with cloudlet capacities and a function catalog.
// len(capacity) must equal g.N(). Residual capacity starts at full capacity.
func NewNetwork(g *graph.Graph, capacity []float64, catalog *Catalog) *Network {
	if len(capacity) != g.N() {
		panic(fmt.Sprintf("mec: %d capacities for %d nodes", len(capacity), g.N()))
	}
	for v, c := range capacity {
		if c < 0 {
			panic(fmt.Sprintf("mec: negative capacity %v at node %d", c, v))
		}
	}
	n := &Network{
		G:        g,
		Capacity: append([]float64(nil), capacity...),
		residual: append([]float64(nil), capacity...),
		catalog:  catalog,
		memo:     &nbrMemo{},
	}
	return n
}

// Fork returns a copy-on-write view of the network: it shares the immutable
// topology, total capacities, function catalog, and neighborhood memo with n,
// but owns a private residual ledger initialized from res (copied). Mutating
// the fork's residuals never touches n or any sibling fork, which is what
// lets a micro-batcher place and commit speculatively with no lock held.
// Callers must not mutate the shared Capacity slice.
func (n *Network) Fork(res []float64) *Network {
	if len(res) != len(n.residual) {
		panic(fmt.Sprintf("mec: fork residual length %d != %d nodes", len(res), len(n.residual)))
	}
	return &Network{
		G:        n.G,
		Capacity: n.Capacity,
		residual: append([]float64(nil), res...),
		catalog:  n.catalog,
		memo:     n.memo,
	}
}

// NumNodes returns the number of APs in the network (ResidualView).
func (n *Network) NumNodes() int { return len(n.residual) }

// Catalog returns the function catalog.
func (n *Network) Catalog() *Catalog { return n.catalog }

// NeighborsWithinPlus returns N_l^+(v) = N_l(v) ∪ {v} in ascending order,
// memoized per (v, l) for the lifetime of the network (the AP graph is
// immutable after construction). The returned slice is shared; callers must
// not modify it. Safe for concurrent use.
func (n *Network) NeighborsWithinPlus(v, l int) []int {
	key := uint64(uint32(v))<<32 | uint64(uint32(l))
	n.memo.mu.RLock()
	nbrs, ok := n.memo.m[key]
	n.memo.mu.RUnlock()
	if ok {
		return nbrs
	}
	nbrs = n.G.NeighborsWithinPlus(v, l)
	n.memo.mu.Lock()
	if cached, ok := n.memo.m[key]; ok {
		nbrs = cached // another goroutine won the race; keep one canonical slice
	} else {
		if n.memo.m == nil {
			n.memo.m = make(map[uint64][]int)
		}
		n.memo.m[key] = nbrs
	}
	n.memo.mu.Unlock()
	return nbrs
}

// Cloudlets returns the IDs of APs with nonzero total capacity, ascending.
func (n *Network) Cloudlets() []int {
	var out []int
	for v, c := range n.Capacity {
		if c > 0 {
			out = append(out, v)
		}
	}
	return out
}

// Residual returns the residual capacity C'_v of node v.
func (n *Network) Residual(v int) float64 {
	n.checkNode(v)
	return n.residual[v]
}

// SetResidualFraction resets every cloudlet's residual capacity to
// frac·C_v, modelling the paper's "ratio of residual computing capacity"
// experiment dimension. frac must lie in [0,1].
func (n *Network) SetResidualFraction(frac float64) {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("mec: residual fraction %v out of [0,1]", frac))
	}
	for v := range n.residual {
		n.residual[v] = n.Capacity[v] * frac
	}
}

// Consume reduces the residual capacity of node v by amount.
// It panics if the node would go negative beyond float tolerance.
func (n *Network) Consume(v int, amount float64) {
	n.checkNode(v)
	if amount < 0 {
		panic(fmt.Sprintf("mec: negative consumption %v", amount))
	}
	if n.residual[v]-amount < -1e-6 {
		panic(fmt.Sprintf("mec: node %d over-consumed: residual %v, requested %v", v, n.residual[v], amount))
	}
	n.residual[v] -= amount
	if n.residual[v] < 0 {
		n.residual[v] = 0
	}
}

// Release returns previously consumed capacity to node v, capped at C_v.
func (n *Network) Release(v int, amount float64) {
	n.checkNode(v)
	if amount < 0 {
		panic(fmt.Sprintf("mec: negative release %v", amount))
	}
	n.residual[v] += amount
	if n.residual[v] > n.Capacity[v] {
		n.residual[v] = n.Capacity[v]
	}
}

// ResidualSnapshot returns a copy of all residual capacities.
func (n *Network) ResidualSnapshot() []float64 {
	return append([]float64(nil), n.residual...)
}

// CopyResiduals copies all residual capacities into dst, reusing its backing
// array when that is large enough, and returns the filled slice — the
// allocation-free ResidualSnapshot for callers that snapshot in a loop.
func (n *Network) CopyResiduals(dst []float64) []float64 {
	return append(dst[:0], n.residual...)
}

// RestoreResiduals overwrites residual capacities from a snapshot.
func (n *Network) RestoreResiduals(snap []float64) {
	if len(snap) != len(n.residual) {
		panic(fmt.Sprintf("mec: snapshot length %d != %d nodes", len(snap), len(n.residual)))
	}
	copy(n.residual, snap)
}

// RestoreResidual overwrites node v's residual capacity with r: the
// one-entry RestoreResiduals, for callers that saved the before-values of
// the entries they touched instead of the whole ledger.
func (n *Network) RestoreResidual(v int, r float64) {
	n.checkNode(v)
	n.residual[v] = r
}

func (n *Network) checkNode(v int) {
	if v < 0 || v >= len(n.residual) {
		panic(fmt.Sprintf("mec: node %d out of range [0,%d)", v, len(n.residual)))
	}
}

// Request is an admitted network-service request: an ordered SFC of function
// type IDs, a reliability expectation ρ, and (once admitted) the cloudlet of
// each primary VNF instance.
type Request struct {
	ID          int
	SFC         []int   // function type IDs, in chain order
	Expectation float64 // ρ_j in (0,1]
	Primaries   []int   // cloudlet per chain position; len == len(SFC) once placed
	Source      int     // source AP of the data traffic (admission framework)
	Destination int     // destination AP
}

// NewRequest validates and returns a request (primaries unset).
func NewRequest(id int, sfc []int, expectation float64, src, dst int) *Request {
	if len(sfc) == 0 {
		panic("mec: empty SFC")
	}
	if expectation <= 0 || expectation > 1 {
		panic(fmt.Sprintf("mec: expectation %v out of (0,1]", expectation))
	}
	return &Request{
		ID:          id,
		SFC:         append([]int(nil), sfc...),
		Expectation: expectation,
		Primaries:   nil,
		Source:      src,
		Destination: dst,
	}
}

// Len returns L_j = |SFC_j|.
func (r *Request) Len() int { return len(r.SFC) }

// Demands returns c(f_i) for every chain position.
func (r *Request) Demands(c *Catalog) []float64 {
	ds := make([]float64, len(r.SFC))
	for i, ft := range r.SFC {
		ds[i] = c.Type(ft).Demand
	}
	return ds
}

// Placement records the full outcome for one request: primaries plus the
// secondary instances chosen per chain position.
type Placement struct {
	Request *Request
	// Secondaries[i] lists the cloudlets hosting secondary instances of chain
	// position i (repeats allowed: multiple instances in one cloudlet).
	Secondaries [][]int
}

// BackupCounts returns n_i, the number of secondary instances per position.
func (p *Placement) BackupCounts() []int {
	ks := make([]int, len(p.Secondaries))
	for i, s := range p.Secondaries {
		ks[i] = len(s)
	}
	return ks
}

// Validate checks structural invariants of the placement against the network:
// primaries set for every position, all hosts are cloudlets, and every
// secondary lies within l hops of its primary.
func (p *Placement) Validate(n *Network, l int) error {
	req := p.Request
	if len(req.Primaries) != req.Len() {
		return fmt.Errorf("mec: request %d has %d primaries for %d functions", req.ID, len(req.Primaries), req.Len())
	}
	if len(p.Secondaries) != req.Len() {
		return fmt.Errorf("mec: request %d has %d secondary lists for %d functions", req.ID, len(p.Secondaries), req.Len())
	}
	for i, v := range req.Primaries {
		if n.Capacity[v] <= 0 {
			return fmt.Errorf("mec: primary of position %d on non-cloudlet AP %d", i, v)
		}
		allowed := make(map[int]bool)
		for _, u := range n.NeighborsWithinPlus(v, l) {
			allowed[u] = true
		}
		for _, u := range p.Secondaries[i] {
			if n.Capacity[u] <= 0 {
				return fmt.Errorf("mec: secondary of position %d on non-cloudlet AP %d", i, u)
			}
			if !allowed[u] {
				return fmt.Errorf("mec: secondary of position %d at AP %d violates %d-hop bound from primary %d", i, u, l, v)
			}
		}
	}
	return nil
}
