// Package serve is the online augmentation service: a long-running HTTP/JSON
// front door over the solver stack. Its network state is multi-versioned
// (MVCC): the residual-capacity ledger, the node health sets and the
// live-placement count live in immutable copy-on-write epochs behind one
// atomic pointer, so state readers never lock. Writers — the batcher,
// releases, and node health transitions — serialize on one install lock:
// micro-batches execute exactly once each, in the order they were collected,
// against the live epoch, and install a successor epoch. Placement records
// live in one map beside the ledger, read and written only under that
// install lock, and an optional write-ahead log (internal/serve/wal) makes
// every installed epoch durable. The HTTP surface is
//
//	POST /v1/augment   admit a request and place its secondaries
//	POST /v1/release   tear a placed request down, restoring capacity
//	POST /v1/node      apply a node health transition (down/up/degraded)
//	GET  /v1/alerts    active alerts + recent transitions (watchdog view)
//	GET  /v1/tenants   per-tenant quota, queue, and admission statistics
//	GET  /v1/state     residual ledger, epoch, placement count, WAL status
//	GET  /v1/healthz   liveness + drain status
//
// Request/response schemas, error codes, and backpressure semantics are
// documented in API.md. Determinism: the same submission log with the same
// wave boundaries (Service.BeginWave) produces identical placements at any
// worker count and any batcher count (see the notes on queue and Options,
// and the determinism tests of internal/serve/loadgen); concurrent HTTP
// producers declare no waves and get valid, not repeatable, placements.
package serve

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mec"
	"repro/internal/serve/wal"
)

// epochLedger is one immutable MVCC version of the serving state: the
// residual ledger, which cloudlets are down or degraded, and how many
// placements are live. Once installed it is never mutated: committers build
// a successor and swap the State's pointer, so any number of readers and
// solvers can use a pinned epoch without synchronization, and every field a
// reader takes from one pinned epoch belongs to the same version.
type epochLedger struct {
	seq  uint64    // install counter; 0 is the boot epoch
	res  []float64 // residual MHz per AP, frozen
	hash uint64    // canonical FNV-1a hash of res
	// down and degraded list the cloudlets in each health state, ascending
	// (nil when empty); successors share them until a transition changes
	// them.
	down, degraded []int
	placed         int // live placements
}

// health returns cloudlet v's health in e.
func (e *epochLedger) health(v int) string {
	if _, ok := slices.BinarySearch(e.down, v); ok {
		return HealthDown
	}
	if _, ok := slices.BinarySearch(e.degraded, v); ok {
		return HealthDegraded
	}
	return HealthUp
}

// withHealth returns e's health sets with cloudlet v moved into state to.
// e's own sets are left untouched.
func (e *epochLedger) withHealth(v int, to string) (down, degraded []int) {
	moved := func(set []int, in bool) []int {
		out := slices.DeleteFunc(slices.Clone(set), func(u int) bool { return u == v })
		if in {
			i, _ := slices.BinarySearch(out, v)
			out = slices.Insert(out, i, v)
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	return moved(e.down, to == HealthDown), moved(e.degraded, to == HealthDegraded)
}

// State is the service's view of the network: the epoch-versioned ledger
// plus every live placement. Epoch installs (batch commits, releases, health
// transitions, restores) are serialized by commitMu; state readers load one
// epoch and never lock. Placement records are looked up under commitMu.
type State struct {
	base     *mec.Network // immutable topology, capacities, catalog
	cur      atomic.Pointer[epochLedger]
	commitMu sync.Mutex

	// walMu orders WAL file writes (group commit): installLocked acquires it
	// while still holding commitMu — so append order always matches epoch
	// order — and flushWAL releases it after the fsync. Committers drop
	// commitMu before fsyncing, which lets the next batch execute and install
	// while this one's durability I/O is in flight. Lock order is strictly
	// commitMu → walMu.
	walMu sync.Mutex

	// records holds every live placement by request ID. It is written only
	// by installLocked (under commitMu) and, before the state is shared, by
	// the WAL restore, and read only under commitMu — so a reader sees the
	// records of exactly the current epoch. It stays beside the epoch rather
	// than in it: copying it on every install would cost O(live placements)
	// per batch.
	records map[int]*wal.PlacedRecord

	// wal, when non-nil, makes installs durable. sinceSnapshot counts
	// entries since the last checkpoint; at snapshotEvery the install path
	// captures a snapshot and truncates the log.
	wal           *wal.Log
	snapshotEvery uint64
	sinceSnapshot uint64

	// tenantSnap, when set by the owning Service, contributes the per-tenant
	// token-bucket state journaled with every WAL entry and snapshot, so a
	// restart resumes quota enforcement. tenantQuota holds the last journaled
	// state recovered by NewStateFromWAL.
	tenantSnap  func() []wal.TenantQuota
	tenantQuota []wal.TenantQuota
}

// walTicket is one install's pending durability work: the WAL entry to
// append and, at checkpoint cadence, the snapshot to write. The issuing
// installLocked call acquires walMu; flushWAL performs the file I/O and
// releases it. Between the two, the epoch is visible but not yet durable —
// callers must not answer clients until flushWAL returns.
type walTicket struct {
	entry wal.Entry
	snap  *wal.Snapshot
}

// NewState wraps a network as serving state. The network's residual ledger
// at this moment becomes epoch 0; the service never mutates the network
// itself afterwards (epochs are copy-on-write forks).
func NewState(net *mec.Network) *State {
	s := &State{base: net, records: make(map[int]*wal.PlacedRecord)}
	res := net.ResidualSnapshot()
	s.cur.Store(&epochLedger{seq: 0, res: res, hash: hashResiduals(res)})
	return s
}

// attachWAL arms the durability path: every installed epoch is appended to l
// and a snapshot checkpoint is written every snapshotEvery entries.
func (s *State) attachWAL(l *wal.Log, snapshotEvery uint64) {
	if snapshotEvery == 0 {
		snapshotEvery = 256
	}
	s.wal = l
	s.snapshotEvery = snapshotEvery
}

// pin returns the current epoch. The returned ledger is immutable, so
// readers use it without synchronization.
func (s *State) pin() *epochLedger { return s.cur.Load() }

// forkNet returns a private mutable network view seeded with e's residuals,
// sharing the immutable topology/catalog/neighborhood-memo with the base.
func (s *State) forkNet(e *epochLedger) *mec.Network { return s.base.Fork(e.res) }

// hashResiduals returns the canonical FNV-1a hash of a residual vector. Two
// ledgers with bit-identical residuals hash equally: the hash is how an
// identity commit is recognized and how WAL restores and trace replays are
// verified. It is 64-bit FNV-1a (hash/fnv's New64a) over each value's bits
// in little-endian byte order, inlined.
func hashResiduals(res []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range res {
		bits := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			h ^= bits & 0xff
			h *= prime64
			bits >>= 8
		}
	}
	return h
}

// Epoch returns the current epoch sequence number (bumped once per installed
// transition: a batch commit with admissions, a release, or a restore).
// Exposed on /v1/state so operators can correlate WAL entries with ledger
// changes.
func (s *State) Epoch() uint64 { return s.pin().seq }

// Hash returns the canonical hash of the current epoch's residual ledger.
func (s *State) Hash() uint64 { return s.pin().hash }

// installOp describes one epoch install beyond its ledger transition: the
// placements it admits or releases, and — for node health transitions — the
// triggering event plus the placement records the failure rewrote. Everything
// here is journaled, so WAL replay and the live process agree on
// failed-instance accounting.
type installOp struct {
	admits   []*wal.PlacedRecord
	releases []int
	updates  []*wal.PlacedRecord // records rewritten in place by a health transition
	health   *wal.HealthRecord
}

// installLocked publishes a successor epoch — applies op to the placement
// records (admits added, releases deleted, health rewrites swapped in) and
// stores the new epoch, whose health sets carry op's transition and whose
// count is the records' — and returns the install's durability ticket (nil
// without a WAL). Callers must hold commitMu, may then release
// it, and must pass the ticket to flushWAL before answering clients: the
// epoch becomes visible to new pins immediately (so the next batch can
// execute against it while this one's fsync is in flight — group commit),
// but responses wait for durability.
func (s *State) installLocked(res []float64, hash uint64, op installOp) *walTicket {
	prev := s.pin()
	next := &epochLedger{seq: prev.seq + 1, res: res, hash: hash, down: prev.down, degraded: prev.degraded}
	if op.health != nil {
		next.down, next.degraded = prev.withHealth(op.health.Node, op.health.To)
	}
	for _, p := range op.admits {
		s.records[p.ID] = p
	}
	for _, id := range op.releases {
		delete(s.records, id)
	}
	for _, p := range op.updates {
		s.records[p.ID] = p
	}
	next.placed = len(s.records)
	s.cur.Store(next)
	metrics.epochSeq.Set(float64(next.seq))
	metrics.epochAdvances.Inc()
	if s.wal == nil {
		return nil
	}
	t := &walTicket{entry: wal.Entry{
		Epoch:    next.seq,
		Hash:     fmt.Sprintf("%016x", hash),
		Residual: res,
		Releases: op.releases,
		Health:   op.health,
	}}
	if s.tenantSnap != nil {
		t.entry.Tenants = s.tenantSnap()
	}
	for _, p := range op.admits {
		t.entry.Admits = append(t.entry.Admits, *p)
	}
	if op.health != nil {
		// Health entries carry the rewritten records and the full
		// post-transition health sets this install published.
		for _, p := range op.updates {
			t.entry.Updates = append(t.entry.Updates, *p)
		}
		t.entry.Down = next.down
		t.entry.Degraded = next.degraded
	}
	s.sinceSnapshot++
	if s.sinceSnapshot >= s.snapshotEvery {
		t.snap = s.captureSnapshotLocked(next)
		s.sinceSnapshot = 0
	}
	// Taken under commitMu so WAL write order matches epoch order; released
	// by flushWAL after the file I/O.
	s.walMu.Lock()
	return t
}

// flushWAL performs a ticket's durability I/O: the ordered append (and, at
// checkpoint cadence, the snapshot write) happen under walMu, then the lock
// drops and the entry is fsynced via the WAL's group-commit Sync — so
// concurrent committers coalesce onto a shared fsync while the next commit's
// append (and solve) proceed. Append or snapshot failures are surfaced as
// metrics and do not fail the commit: the service degrades to non-durable
// rather than refusing traffic. Safe to call with a nil ticket (no WAL
// attached, or an identity transition).
func (s *State) flushWAL(t *walTicket) {
	if t == nil {
		return
	}
	token, err := s.wal.Append(t.entry)
	if err != nil {
		metrics.walErrors.Inc()
		s.walMu.Unlock()
		return
	}
	metrics.walAppends.Inc()
	if t.snap != nil {
		if err := s.wal.WriteSnapshot(*t.snap); err != nil {
			metrics.walErrors.Inc()
		} else {
			metrics.walSnapshots.Inc()
		}
	}
	s.walMu.Unlock()
	if d, err := s.wal.Sync(token); err != nil {
		metrics.walErrors.Inc()
	} else if d > 0 {
		// d == 0 means another committer's fsync already covered this
		// append (group commit) — only performed fsyncs are recorded, so
		// the histogram count is the true disk-flush count.
		metrics.walFsync.Observe(d.Seconds())
	}
}

// captureSnapshotLocked collects the full-state snapshot for epoch e.
// Callers must hold commitMu, which keeps the placement map consistent with
// the epoch being checkpointed (no install can interleave).
func (s *State) captureSnapshotLocked(e *epochLedger) *wal.Snapshot {
	snap := &wal.Snapshot{
		Epoch:    e.seq,
		Hash:     fmt.Sprintf("%016x", e.hash),
		Residual: e.res,
		Down:     e.down,
		Degraded: e.degraded,
	}
	if s.tenantSnap != nil {
		snap.Tenants = s.tenantSnap()
	}
	for _, p := range s.records {
		snap.Placed = append(snap.Placed, *p)
	}
	sort.Slice(snap.Placed, func(i, j int) bool { return snap.Placed[i].ID < snap.Placed[j].ID })
	return snap
}

// Release tears down a placed request: its record is removed and every MHz
// it consumed (primaries and secondaries) returns to the ledger, both in the
// one epoch install — a checkpoint can never see the record gone while the
// ledger still carries its MHz. The freed total is returned; releasing an
// unknown ID is an error and leaves the ledger untouched.
func (s *State) Release(id int) (float64, error) {
	s.commitMu.Lock()
	p, ok := s.records[id]
	if !ok {
		s.commitMu.Unlock()
		return 0, fmt.Errorf("serve: unknown request id %d", id)
	}
	cur := s.pin()
	res := append([]float64(nil), cur.res...)
	freed := 0.0
	for _, v := range sortedNodes(p.PerNode) {
		if cur.health(v) == HealthDown {
			// A failed node's share was already dropped when its instances
			// were destroyed; any residue here (e.g. a record admitted before
			// this process learned of the failure) must not resurrect
			// capacity on a dark node — WAL replay applies the same rule.
			continue
		}
		mhz := p.PerNode[v]
		res[v] += mhz
		if cap := s.base.Capacity[v]; res[v] > cap {
			res[v] = cap
		}
		freed += mhz
	}
	t := s.installLocked(res, hashResiduals(res), installOp{releases: []int{id}})
	s.commitMu.Unlock()
	s.flushWAL(t)
	return freed, nil
}

// DownNodes returns a copy of the cloudlets currently marked down, ascending.
func (s *State) DownNodes() []int { return slices.Clone(s.pin().down) }

// PlacementIDs returns every live placement ID, ascending — the
// deterministic iteration order of the watchdog's audits. It takes the
// install lock.
func (s *State) PlacementIDs() []int {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.idsLocked()
}

// idsLocked returns every live placement ID, ascending. Callers hold
// commitMu.
func (s *State) idsLocked() []int {
	out := make([]int, 0, len(s.records))
	for id := range s.records {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// unmetRecords returns, ascending by ID, every live placement whose attained
// reliability misses its expectation — what audits and restores walk. It
// takes the install lock.
func (s *State) unmetRecords() []*wal.PlacedRecord {
	s.commitMu.Lock()
	var out []*wal.PlacedRecord
	for _, p := range s.records {
		if !p.Met {
			out = append(out, p)
		}
	}
	s.commitMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sortedNodes returns a per-node map's keys ascending, so ledger arithmetic
// is applied in a deterministic order regardless of map iteration.
func sortedNodes(m map[int]float64) []int {
	nodes := make([]int, 0, len(m))
	for v := range m {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	return nodes
}

// consumePrimaries charges a fork's ledger for a request's pre-set
// primaries. snap holds the fork's residuals as of the call; on failure the
// fork is restored from it.
func consumePrimaries(work *mec.Network, req *mec.Request, snap []float64) error {
	for i, v := range req.Primaries {
		demand := work.Catalog().Type(req.SFC[i]).Demand
		if work.Residual(v) < demand {
			work.RestoreResiduals(snap)
			return fmt.Errorf("serve: cloudlet %d lacks %v MHz for primary of position %d", v, demand, i)
		}
		work.Consume(v, demand)
	}
	return nil
}

// commitSecondaries charges a fork's ledger for a solved placement's
// secondaries. It fails without partial effects when the ledger no longer
// covers the placement (a commit conflict: some earlier commit consumed the
// headroom the solver budgeted against). On success it returns the exact
// MHz consumed per cloudlet, measured off the ledger — recording the
// measured amount (not the nominal demand×count) is what keeps repeated
// admit/release cycles from inflating the ledger when a commit lands within
// the 1e-9 tolerance of a node's remaining headroom. scratch is the batch's
// rollback buffer, overwritten here.
func commitSecondaries(work *mec.Network, sfc []int, perBin []map[int]int, scratch []float64) (map[int]float64, error) {
	snap := work.CopyResiduals(scratch)
	consumed := make(map[int]float64)
	for i, m := range perBin {
		demand := work.Catalog().Type(sfc[i]).Demand
		for _, u := range sortedBins(m) {
			need := demand * float64(m[u])
			if work.Residual(u) < need-1e-9 {
				work.RestoreResiduals(snap)
				return nil, fmt.Errorf("serve: commit conflict: cloudlet %d has %v MHz, placement needs %v", u, work.Residual(u), need)
			}
			before := work.Residual(u)
			work.Consume(u, need) // clamps at 0 within the tolerance
			consumed[u] += before - work.Residual(u)
		}
	}
	return consumed, nil
}

// sortedBins returns a per-bin count map's keys ascending.
func sortedBins(m map[int]int) []int {
	bins := make([]int, 0, len(m))
	for u := range m {
		bins = append(bins, u)
	}
	sort.Ints(bins)
	return bins
}

// rollback returns previously consumed per-node MHz to a fork's ledger, in
// deterministic node order.
func rollback(work *mec.Network, perNode map[int]float64) {
	for _, v := range sortedNodes(perNode) {
		work.Release(v, perNode[v])
	}
}

// record returns the live placement record for id, looked up under the
// install lock. Installed records are never mutated (a health transition
// installs a rewritten copy), so the caller may read it without locks but
// must not modify it.
func (s *State) record(id int) (*wal.PlacedRecord, bool) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	p, ok := s.records[id]
	return p, ok
}

// Placement returns a deep copy of the live placement record for id. After a
// node failure, destroyed primaries read -1, destroyed secondaries are absent
// from their host lists, PerNode no longer holds the dead node's share, and
// Reliability is the attained u_j of the surviving replicas.
func (s *State) Placement(id int) (wal.PlacedRecord, bool) {
	p, ok := s.record(id)
	if !ok {
		return wal.PlacedRecord{}, false
	}
	c := *p
	c.SFC = slices.Clone(p.SFC)
	c.Primaries = slices.Clone(p.Primaries)
	c.Secondaries = make([][]int, len(p.Secondaries))
	for i, sec := range p.Secondaries {
		c.Secondaries[i] = slices.Clone(sec)
	}
	c.PerNode = maps.Clone(p.PerNode)
	return c, true
}

// PlacedCount returns the number of live placements.
func (s *State) PlacedCount() int { return s.pin().placed }

// CloudletState is one row of the /v1/state residual table.
type CloudletState struct {
	ID       int     `json:"id"`
	Capacity float64 `json:"capacity_mhz"`
	Residual float64 `json:"residual_mhz"`
}

// Snapshot captures the current epoch: every cloudlet's capacity and
// residual, the epoch sequence number, and the canonical state hash.
// Lock-free: it reads one immutable epoch.
func (s *State) Snapshot() (cloudlets []CloudletState, epoch, hash uint64) {
	e := s.pin()
	return s.cloudletRows(e), e.seq, e.hash
}

// cloudletRows returns every cloudlet's capacity and residual in epoch e.
func (s *State) cloudletRows(e *epochLedger) []CloudletState {
	var rows []CloudletState
	for _, v := range s.base.Cloudlets() {
		rows = append(rows, CloudletState{ID: v, Capacity: s.base.Capacity[v], Residual: e.res[v]})
	}
	return rows
}

// NewStateFromWAL rebuilds serving state from the durable log in dir: the
// latest snapshot plus every intact entry after it. The network must be the
// same topology the log was written against (same seed/scenario); the
// restored epoch, residual ledger, and placement map are bit-identical to
// the pre-crash state, verified against the last recorded canonical hash.
func NewStateFromWAL(net *mec.Network, dir string) (*State, error) {
	snap, entries, err := wal.Replay(dir)
	if err != nil {
		return nil, err
	}
	s := NewState(net)
	res := net.ResidualSnapshot()
	seq := uint64(0)
	wantHash := ""
	records := make(map[int]*wal.PlacedRecord)
	var down, degraded []int
	if snap != nil {
		if len(snap.Residual) != len(res) {
			return nil, fmt.Errorf("serve: WAL snapshot covers %d nodes, network has %d", len(snap.Residual), len(res))
		}
		res = snap.Residual
		seq = snap.Epoch
		wantHash = snap.Hash
		down, degraded = snap.Down, snap.Degraded
		s.tenantQuota = snap.Tenants
		for _, r := range snap.Placed {
			records[r.ID] = &r
		}
	}
	for _, e := range entries {
		if len(e.Residual) != len(res) {
			return nil, fmt.Errorf("serve: WAL entry %d covers %d nodes, network has %d", e.Epoch, len(e.Residual), len(res))
		}
		res = e.Residual
		seq = e.Epoch
		wantHash = e.Hash
		for _, r := range e.Admits {
			records[r.ID] = &r
		}
		// Health entries rewrite live records in place (destroyed instances,
		// recomputed reliability) and republish the full down/degraded sets.
		for _, r := range e.Updates {
			if _, live := records[r.ID]; live {
				records[r.ID] = &r
			}
		}
		if e.Health != nil {
			down, degraded = e.Down, e.Degraded
		}
		if e.Tenants != nil {
			s.tenantQuota = e.Tenants
		}
		for _, id := range e.Releases {
			delete(records, id)
		}
	}
	hash := hashResiduals(res)
	if wantHash != "" && fmt.Sprintf("%016x", hash) != wantHash {
		return nil, fmt.Errorf("serve: restored ledger hash %016x != recorded %s (wrong network or damaged log?)", hash, wantHash)
	}
	s.records = records
	s.cur.Store(&epochLedger{
		seq: seq, res: res, hash: hash,
		down: down, degraded: degraded, placed: len(records), // journaled ascending
	})
	metrics.epochSeq.Set(float64(seq))
	return s, nil
}

// TenantQuotas returns the per-tenant token-bucket state recovered from the
// WAL (nil on a fresh state or when the log never journaled tenants). The
// owning Service seeds its buckets from it on restore.
func (s *State) TenantQuotas() []wal.TenantQuota { return s.tenantQuota }

// MaxPlacedID returns the highest live placement ID (0 when none): after a
// restore the service resumes its admission sequence above it so new
// requests never collide with replayed placements.
func (s *State) MaxPlacedID() int {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	max := 0
	for id := range s.records {
		if id > max {
			max = id
		}
	}
	return max
}
