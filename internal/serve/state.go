// Package serve is the online augmentation service: a long-running HTTP/JSON
// front door over the solver stack. Its network state is multi-versioned
// (MVCC): the residual-capacity ledger, the node health sets and the live
// placement records live in immutable copy-on-write epochs behind one atomic
// pointer, so readers never lock. Writers — the batcher, releases, and node
// health transitions — serialize on one install lock: micro-batches execute
// exactly once each, in the order they were collected, against the live
// epoch, and install a successor epoch. An optional write-ahead log
// (internal/serve/wal) makes every installed epoch durable. The HTTP surface:
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
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mec"
	"repro/internal/serve/wal"
)

// epochLedger is one immutable MVCC version of the serving state: the
// residual ledger, which cloudlets are down or degraded, and the live
// placement records. Once installed it is never mutated: committers build
// a successor and swap the State's pointer, so any number of readers and
// solvers can use a pinned epoch without synchronization, and every field a
// reader takes from one pinned epoch belongs to the same version.
type epochLedger struct {
	seq uint64    // install counter; 0 is the boot epoch
	res []float64 // residual MHz per AP, frozen
	// hashOnce guards hashVal, the canonical FNV-1a hash of res, taken the
	// first time something reads it (hash): the WAL, /v1/state, the trace
	// trailer and a restore check do; serving a request does not.
	hashOnce sync.Once
	hashVal  uint64
	// down and degraded list the cloudlets in each health state, ascending
	// (nil when empty); successors share them until a transition changes
	// them.
	down, degraded []int
	// recs holds the live placement records, ascending by ID; a record is
	// never mutated (a health transition installs a rewritten copy).
	recs  []*wal.PlacedRecord
	maxID int // highest placement ID ever installed, live or not
}

// hash returns the canonical hash of e's residual ledger, computing it on
// first use. Safe for concurrent readers.
func (e *epochLedger) hash() uint64 {
	e.hashOnce.Do(func() { e.hashVal = hashResiduals(e.res) })
	return e.hashVal
}

// byID orders a record against a placement ID, for binary search in recs.
func byID(p *wal.PlacedRecord, id int) int { return cmp.Compare(p.ID, id) }

// record returns e's live placement record for id; the caller must not
// modify it.
func (e *epochLedger) record(id int) (*wal.PlacedRecord, bool) {
	if i, ok := slices.BinarySearchFunc(e.recs, id, byID); ok {
		return e.recs[i], true
	}
	return nil, false
}

// withRecords returns e's records with op applied — admits merged in by ID
// (fair queueing can install a lower ID after a higher one), releases
// deleted, rewrites swapped in by ID — never changing e's view. Admits above
// every live ID append past e's end, and a release of the lowest ID drops the
// first slot, sharing e's array; that is safe because the newest epoch always
// ends last in its array (every other op copies into a fresh one).
func (e *epochLedger) withRecords(op installOp) []*wal.PlacedRecord {
	recs, last := e.recs, math.MinInt
	if len(recs) > 0 {
		last = recs[len(recs)-1].ID
	}
	above := len(op.releases)+len(op.updates) == 0
	for _, p := range op.admits {
		above = above && p.ID > last
		last = p.ID
	}
	switch {
	case above:
		return append(recs, op.admits...)
	case len(op.admits)+len(op.updates) == 0 && len(op.releases) == 1 && len(recs) > 0 && recs[0].ID == op.releases[0]:
		return recs[1:]
	}
	recs = append(make([]*wal.PlacedRecord, 0, len(recs)+len(op.admits)), recs...)
	for _, ps := range [][]*wal.PlacedRecord{op.admits, op.updates} {
		for _, p := range ps {
			if i, ok := slices.BinarySearchFunc(recs, p.ID, byID); ok {
				recs[i] = p // a rewrite replaces the record it copies
			} else {
				recs = slices.Insert(recs, i, p)
			}
		}
	}
	for _, id := range op.releases {
		if i, ok := slices.BinarySearchFunc(recs, id, byID); ok {
			recs = slices.Delete(recs, i, i+1)
		}
	}
	return recs
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

// State is the service's view of the network: the current epoch, which holds
// the ledger and every live placement. commitMu orders writers — epoch
// installs (batch commits, releases, health transitions) — and no reader
// locks: a reader loads one epoch and answers from it alone.
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
// append (its hash still to take), the installed epoch it journals and
// whether that epoch is also snapshotted (checkpoint cadence). The issuing
// installLocked call acquires walMu; flushWAL performs the hashing and file
// I/O and releases it. Between the two, the epoch is visible but not yet
// durable — callers must not answer clients until flushWAL returns.
type walTicket struct {
	entry      wal.Entry
	epoch      *epochLedger
	checkpoint bool
}

// NewState wraps a network as serving state. The network's residual ledger
// at this moment becomes epoch 0; the service never mutates the network
// itself afterwards (epochs are copy-on-write forks).
func NewState(net *mec.Network) *State {
	s := &State{base: net}
	res := net.ResidualSnapshot()
	s.cur.Store(&epochLedger{seq: 0, res: res})
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
// ledgers with bit-identical residuals hash equally: the hash is how WAL
// restores and trace replays are verified. It is 64-bit FNV-1a (hash/fnv's
// New64a) over each value's bits in little-endian byte order, inlined.
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

// sameBits reports whether two residual vectors are bit-identical — how an
// identity batch (one that left the ledger as it found it) is recognized.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// Epoch returns the current epoch sequence number (bumped once per installed
// transition: a batch commit with admissions, a release, or a restore).
// Exposed on /v1/state so operators can correlate WAL entries with ledger
// changes.
func (s *State) Epoch() uint64 { return s.pin().seq }

// Hash returns the canonical hash of the current epoch's residual ledger.
func (s *State) Hash() uint64 { return s.pin().hash() }

// installOp describes one epoch install beyond its ledger transition: the
// placements it admits, releases or rewrites in place (a repair, or the
// records a node failure rewrote) and, for node health transitions, the
// triggering event. Everything here is journaled, so WAL replay and the live
// process agree on failed-instance accounting.
type installOp struct {
	admits   []*wal.PlacedRecord
	releases []int
	updates  []*wal.PlacedRecord // records replaced under their own IDs
	health   *wal.HealthRecord
}

// installLocked publishes a successor epoch — the current epoch's records
// with op applied, its health sets carrying op's transition — and returns
// the install's durability ticket (nil without a WAL). Callers must hold
// commitMu, may then release it, and must pass the ticket to flushWAL before
// answering clients: the epoch becomes visible to new pins immediately (so
// the next batch can execute against it while this one's fsync is in flight
// — group commit), but responses wait for durability. No hash is taken
// here: the epoch hashes itself when first read (flushWAL reads it off
// commitMu).
func (s *State) installLocked(res []float64, op installOp) *walTicket {
	prev := s.pin()
	next := &epochLedger{
		seq: prev.seq + 1, res: res, down: prev.down, degraded: prev.degraded,
		recs: prev.withRecords(op), maxID: prev.maxID,
	}
	if op.health != nil {
		next.down, next.degraded = prev.withHealth(op.health.Node, op.health.To)
	}
	for _, p := range op.admits {
		next.maxID = max(next.maxID, p.ID)
	}
	s.cur.Store(next)
	metrics.epochSeq.Set(float64(next.seq))
	metrics.epochAdvances.Inc()
	if s.wal == nil {
		return nil
	}
	t := &walTicket{epoch: next, entry: wal.Entry{
		Epoch:    next.seq,
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
	for _, p := range op.updates {
		t.entry.Updates = append(t.entry.Updates, *p)
	}
	if op.health != nil {
		// Health entries carry the full post-transition health sets this
		// install published.
		t.entry.Down = next.down
		t.entry.Degraded = next.degraded
	}
	s.sinceSnapshot++
	if s.sinceSnapshot >= s.snapshotEvery {
		t.checkpoint = true
		s.sinceSnapshot = 0
	}
	// Taken under commitMu so WAL write order matches epoch order; released
	// by flushWAL after the file I/O.
	s.walMu.Lock()
	return t
}

// flushWAL performs a ticket's durability I/O: the epoch's hash, the ordered
// append and, at checkpoint cadence, the snapshot of the ticket's epoch (all
// taken here rather than under commitMu) happen under walMu, then the lock
// drops and the entry is fsynced via the WAL's group-commit Sync — so concurrent committers
// coalesce onto a shared fsync while the next commit's append (and solve)
// proceed. Append or snapshot failures are surfaced as metrics and do not
// fail the commit: the service degrades to non-durable rather than refusing
// traffic. Safe to call with a nil ticket (no WAL attached, or an identity
// transition).
func (s *State) flushWAL(t *walTicket) {
	if t == nil {
		return
	}
	t.entry.Hash = fmt.Sprintf("%016x", t.epoch.hash())
	token, err := s.wal.Append(t.entry)
	if err != nil {
		metrics.walErrors.Inc()
		s.walMu.Unlock()
		return
	}
	metrics.walAppends.Inc()
	if t.checkpoint {
		e := t.epoch
		snap := wal.Snapshot{
			Epoch:    e.seq,
			Hash:     t.entry.Hash,
			Residual: e.res,
			Placed:   make([]wal.PlacedRecord, len(e.recs)),
			Down:     e.down,
			Degraded: e.degraded,
			Tenants:  t.entry.Tenants, // the quota state of the install itself
			MaxID:    e.maxID,
		}
		for i, p := range e.recs {
			snap.Placed[i] = *p
		}
		if err := s.wal.WriteSnapshot(snap); err != nil {
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

// Release tears down a placed request: its record is removed and every MHz
// it consumed (primaries and secondaries) returns to the ledger, both in the
// one epoch install — a checkpoint can never see the record gone while the
// ledger still carries its MHz. The freed total is returned; releasing an
// unknown ID is an error and leaves the ledger untouched.
func (s *State) Release(id int) (float64, error) {
	s.commitMu.Lock()
	cur := s.pin()
	p, ok := cur.record(id)
	if !ok {
		s.commitMu.Unlock()
		return 0, fmt.Errorf("serve: unknown request id %d", id)
	}
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
	t := s.installLocked(res, installOp{releases: []int{id}})
	s.commitMu.Unlock()
	s.flushWAL(t)
	return freed, nil
}

// DownNodes returns a copy of the cloudlets currently marked down, ascending.
func (s *State) DownNodes() []int { return slices.Clone(s.pin().down) }

// PlacementIDs returns every live placement ID of the current epoch,
// ascending — the deterministic iteration order of the watchdog's audits.
func (s *State) PlacementIDs() []int {
	recs := s.pin().recs
	out := make([]int, len(recs))
	for i, p := range recs {
		out[i] = p.ID
	}
	return out
}

// unmetRecords returns, ascending by ID, every live placement of the current
// epoch whose attained reliability misses its expectation — what audits and
// restores walk.
func (s *State) unmetRecords() []*wal.PlacedRecord {
	var out []*wal.PlacedRecord
	for _, p := range s.pin().recs {
		if !p.Met {
			out = append(out, p)
		}
	}
	return out
}

// sortedNodes returns a per-node (or per-bin) map's keys ascending, so
// ledger arithmetic is applied in a deterministic order regardless of map
// iteration.
func sortedNodes[V float64 | int](m map[int]V) []int {
	nodes := make([]int, 0, len(m))
	for v := range m {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
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
		for _, u := range sortedNodes(m) {
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

// Placement returns a deep copy of the live placement record for id. After a
// node failure, destroyed primaries read -1, destroyed secondaries are absent
// from their host lists, PerNode no longer holds the dead node's share, and
// Reliability is the attained u_j of the surviving replicas.
func (s *State) Placement(id int) (wal.PlacedRecord, bool) {
	p, ok := s.pin().record(id)
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
func (s *State) PlacedCount() int { return len(s.pin().recs) }

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
	return s.cloudletRows(e), e.seq, e.hash()
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
// restored epoch, residual ledger, and placement records are bit-identical
// to the pre-crash state, verified against the last recorded canonical hash.
// The highest placement ID ever issued is restored too — the snapshot's
// max_id, or any higher ID it or a later entry holds — so no ID is reissued.
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
	maxID := 0
	var down, degraded []int
	if snap != nil {
		if snap.MaxID < 0 {
			return nil, fmt.Errorf("serve: WAL snapshot has negative max_id %d", snap.MaxID)
		}
		maxID = snap.MaxID
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
			maxID = max(maxID, r.ID)
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
			maxID = max(maxID, r.ID)
		}
		// Repairs and health entries rewrite live records in place; health
		// entries also republish the full down/degraded sets.
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
	restored := &epochLedger{seq: seq, res: res}
	if hash := restored.hash(); wantHash != "" && fmt.Sprintf("%016x", hash) != wantHash {
		return nil, fmt.Errorf("serve: restored ledger hash %016x != recorded %s (wrong network or damaged log?)", hash, wantHash)
	}
	if maxID == math.MaxInt {
		return nil, fmt.Errorf("serve: WAL placement IDs reach %d; no ID is left to issue", maxID)
	}
	recs := make([]*wal.PlacedRecord, 0, len(records))
	for _, p := range records {
		recs = append(recs, p)
	}
	slices.SortFunc(recs, func(a, b *wal.PlacedRecord) int { return byID(a, b.ID) })
	restored.down, restored.degraded = down, degraded // journaled ascending
	restored.recs, restored.maxID = recs, maxID
	s.cur.Store(restored)
	metrics.epochSeq.Set(float64(seq))
	return s, nil
}

// TenantQuotas returns the per-tenant token-bucket state recovered from the
// WAL (nil on a fresh state or when the log never journaled tenants). The
// owning Service seeds its buckets from it on restore.
func (s *State) TenantQuotas() []wal.TenantQuota { return s.tenantQuota }

// MaxPlacedID returns the highest placement ID this state ever installed,
// released ones included (0 when none): after a restore the service resumes
// its admission sequence above it, so no ID a client once held is reissued.
func (s *State) MaxPlacedID() int { return s.pin().maxID }
