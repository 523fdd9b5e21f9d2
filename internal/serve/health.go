package serve

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mec"
	"repro/internal/reliability"
	"repro/internal/serve/wal"
	"repro/internal/serve/watchdog"
)

// Node health states accepted by POST /v1/node.
const (
	// HealthDown marks a cloudlet failed: its residual capacity is withdrawn
	// from the ledger, every VNF instance it hosted is destroyed, and each
	// affected session's attained reliability is recomputed from the
	// surviving replicas.
	HealthDown = "down"
	// HealthUp marks a cloudlet recovered: its residual returns to capacity
	// minus what surviving instances still consume. Instances destroyed while
	// it was down do not come back — re-augmentation rebuilds them.
	HealthUp = "up"
	// HealthDegraded marks a cloudlet impaired but alive: hosted instances
	// survive, and the free capacity offered to new placements is scaled by
	// degradedFactor.
	HealthDegraded = "degraded"
)

// NodeEvent is the JSON body of POST /v1/node: a health transition for one
// cloudlet, reported by an external monitor or the chaos load generator.
type NodeEvent struct {
	Node   int    `json:"node"`
	Health string `json:"health"`
	// Note is carried into the alert raised for the transition.
	Note string `json:"note,omitempty"`
}

// NodeResponse is the JSON body answered by POST /v1/node.
type NodeResponse struct {
	Node   int    `json:"node"`
	Health string `json:"health"`
	// Epoch is the ledger epoch the transition installed (unchanged when the
	// event was a no-op re-application of the current state).
	Epoch uint64 `json:"epoch"`
	// InstancesDestroyed counts VNF instances lost to this transition.
	InstancesDestroyed int `json:"instances_destroyed"`
	// SessionsAffected counts placements whose records this transition
	// rewrote.
	SessionsAffected int `json:"sessions_affected"`
	// ReaugQueued counts sessions queued for proactive re-augmentation
	// because the transition dropped their attained reliability below ρ.
	ReaugQueued int `json:"reaug_queued"`
}

// Alerter exposes the service's stateful alert engine (the /v1/alerts data).
func (s *Service) Alerter() *watchdog.Alerter { return s.alerter }

// ApplyHealth applies one node health transition as a first-class epoch
// mutation, serialized with batch commits under the install lock:
//
//   - down: the node's residual is withdrawn (0), every instance it hosted is
//     destroyed (primaries become -1, secondaries leave their host lists, the
//     node's consumption share is dropped — the capacity is gone, not
//     releasable), and each affected session's reliability is recomputed from
//     the surviving replicas.
//   - degraded: instances survive; the node's free capacity is scaled by
//     degradedFactor.
//   - up: the residual returns to capacity minus what surviving instances
//     consume (full capacity after a down, since its instances were
//     destroyed).
//
// The new health sets and the new residual are published in the one epoch
// install. The transition is journaled to the WAL (event, rewritten records,
// full post-transition health sets), cloudlet and session alerts are evaluated,
// and sessions whose attained reliability fell below ρ are queued for
// re-augmentation (driven by ReaugmentOnce).
// Re-applying the current state is an idempotent no-op.
func (s *Service) ApplyHealth(node int, health, note string) (NodeResponse, error) {
	offered, known := healthOffers[health]
	if !known {
		return NodeResponse{}, fmt.Errorf("serve: unknown health state %q (want %s, %s, or %s)", health, HealthDown, HealthUp, HealthDegraded)
	}
	if node < 0 || node >= len(s.state.base.Capacity) || s.state.base.Capacity[node] <= 0 {
		return NodeResponse{}, fmt.Errorf("serve: node %d is not a cloudlet", node)
	}

	s.state.commitMu.Lock()
	cur := s.state.pin()
	if cur.health(node) == health {
		s.state.commitMu.Unlock()
		return NodeResponse{Node: node, Health: health, Epoch: cur.seq}, nil
	}

	// Every record hosting instances on a failed node gets a rewritten copy
	// (copy-on-write: a reader of cur keeps a consistent pre-failure view),
	// in ascending ID order; the install below publishes them.
	var updates []*wal.PlacedRecord
	destroyed, queued := 0, 0
	for _, p := range cur.recs {
		if _, hosts := p.PerNode[node]; hosts && health == HealthDown {
			np, lost := rewriteWithoutNode(p, node, s.state.base.Catalog())
			updates, destroyed = append(updates, np), destroyed+lost
			if !np.Met && (p.Met || !p.Failed) { // newly awaiting repair
				queued++
			}
		}
	}

	res := append([]float64(nil), cur.res...)
	res[node] = max(0, (s.state.base.Capacity[node]-cur.consumedOn(node))*offered)
	ticket := s.state.installLocked(res, installOp{
		updates: updates,
		health:  &wal.HealthRecord{Node: node, To: health},
	})
	epoch := s.state.Epoch()
	s.state.commitMu.Unlock()
	s.state.flushWAL(ticket)

	metrics.nodeTransitions[health].Inc()
	metrics.instancesDestroyed.Add(int64(destroyed))
	s.alerter.EvalCloudlet(node, health, note)

	for _, p := range updates {
		s.alerter.EvalSession(p.ID, p.Reliability, p.Expectation, fmt.Sprintf("node %d down", node))
	}
	if s.recorder != nil {
		s.recorder.Record(TraceOp{Op: OpNode, ID: node, Health: health})
	}
	return NodeResponse{
		Node: node, Health: health, Epoch: epoch,
		InstancesDestroyed: destroyed, SessionsAffected: len(updates), ReaugQueued: queued,
	}, nil
}

// rewriteWithoutNode returns a copy of p with every instance hosted on node
// destroyed, Reliability/Met recomputed from the survivors and Failed set,
// plus the number of instances lost. The node's consumption share is
// dropped: that capacity is gone with the node, not releasable.
func rewriteWithoutNode(p *wal.PlacedRecord, node int, cat *mec.Catalog) (*wal.PlacedRecord, int) {
	np := *p // every field a failure does not touch — tenant and solver included
	np.Primaries = slices.Clone(p.Primaries)
	np.Secondaries = make([][]int, len(p.Secondaries))
	np.PerNode = maps.Clone(p.PerNode)
	delete(np.PerNode, node)
	lost := 0
	for i, sec := range p.Secondaries {
		for _, u := range sec {
			if u != node {
				np.Secondaries[i] = append(np.Secondaries[i], u)
			}
		}
		lost += len(sec) - len(np.Secondaries[i])
		if np.Primaries[i] == node {
			np.Primaries[i] = -1
			lost++
		}
	}
	np.Reliability = survivorReliability(&np, cat)
	np.Met = reliability.MeetsExpectation(np.Reliability, np.Expectation)
	np.Failed = true
	return &np, lost
}

// consumedOn sums the MHz every live placement of e holds on node v, in
// ascending ID order: float addition is not associative, and the sum lands
// in the ledger and its hash, so any other order would make replays diverge
// in the last bit.
func (e *epochLedger) consumedOn(v int) float64 {
	total := 0.0
	for _, p := range e.recs {
		total += p.PerNode[v]
	}
	return total
}

// reaugEntry is the backoff state of one session awaiting repair: its
// failed attempts, and the earliest round that may retry it (exponential
// backoff in rounds: tick + 1<<attempts).
type reaugEntry struct{ id, attempts, nextTick int }

// reaugQueue is the backoff state of the sessions awaiting repair: the live
// records a failure left below ρ (Failed && !Met), so a restore rebuilds the
// queue and only the attempt counts start over.
type reaugQueue struct {
	mu      sync.Mutex
	entries map[int]*reaugEntry
	tick    int
}

// due advances the round counter and returns, ascending by ID, the sessions
// of recs awaiting repair that this round may try, dropping the state of any
// other.
func (q *reaugQueue) due(recs []*wal.PlacedRecord) []*reaugEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tick++
	entries := make(map[int]*reaugEntry)
	var out []*reaugEntry
	for _, p := range recs {
		if !p.Failed || p.Met {
			continue
		}
		e := q.entries[p.ID]
		if e == nil {
			e = &reaugEntry{id: p.ID}
		}
		if entries[p.ID] = e; e.nextTick <= q.tick {
			out = append(out, e)
		}
	}
	q.entries = entries
	return out
}

// backoff records a failed attempt, reschedules e exponentially (in rounds)
// and reports whether the retry budget still covers it.
func (q *reaugQueue) backoff(e *reaugEntry) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	e.attempts++
	e.nextTick = q.tick + 1<<e.attempts
	return e.attempts < reaugBudget
}

// ReaugReport summarizes one re-augmentation round.
type ReaugReport struct {
	// Attempted counts sessions this round tried to repair.
	Attempted int `json:"attempted"`
	// Restored counts sessions whose repair met ρ again.
	Restored int `json:"restored"`
	// Degraded counts sessions repaired below ρ (degraded mode, alerted).
	Degraded int `json:"degraded"`
	// Retrying counts sessions left queued with backoff after a failed
	// attempt.
	Retrying int `json:"retrying"`
	// Lost counts sessions released after the retry budget (sticky CRIT
	// alert remains).
	Lost int `json:"lost"`
	// Remapped is never set: a repair keeps the session's ID.
	//
	// Deprecated: it stays only for the benchmark harness, which still
	// follows renames; ROADMAP item 1 removes that reader.
	Remapped map[int]int `json:"remapped,omitempty"`
}

// ReaugmentOnce runs one proactive re-augmentation round. Every due session
// is repaired in place by one enqueue through the normal admission pipeline
// (so repairs inherit the service's determinism) whose batch reads the
// session's survivors from its epoch and installs the repaired record under
// the same ID. Outcomes:
//
//   - repaired with u >= ρ: restored; the session's alert resolves.
//   - repaired with u < ρ: served degraded — the achieved reliability is
//     real, the session stays alerted and leaves the queue.
//   - repair failed: retried with exponential backoff until reaugBudget (3)
//     attempts, then the session is released and declared lost (sticky CRIT
//     alert).
//
// Callers drive rounds from one goroutine (the probe loop, or a driver that
// owns the cadence); sessions are tried in ascending ID order.
func (s *Service) ReaugmentOnce() ReaugReport {
	var rep ReaugReport
	for _, e := range s.reaug.due(s.state.pin().recs) {
		p, live := s.state.pin().record(e.id)
		if !live {
			continue // released since; Release cleared its alert
		}
		rep.Attempted++
		metrics.reaugAttempts.Inc()
		// Sync-enqueue: the trace marks that this producer waits for the
		// answer before its next submission, so a replay reproduces the
		// one-request batch the repair has here.
		var out Outcome
		t, err := s.Enqueue(AugmentRequest{
			SFC: p.SFC, Expectation: p.Expectation, Source: p.Source, Destination: p.Destination,
			Tenant: p.Tenant, Repair: p.ID,
		})
		if err == nil {
			out = t.Wait()
		}
		key := watchdog.Key{Kind: watchdog.KindSession, ID: p.ID}
		switch {
		case err == nil && out.Reason == ReasonPlaced && out.Response.MetExpectation:
			rep.Restored++
			metrics.reaugRestored.Inc()
			s.alerter.Resolve(key, "repaired")
		case err == nil && out.Reason == ReasonPlaced:
			rep.Degraded++
			metrics.reaugDegradedTotal.Inc()
			s.alerter.EvalSession(p.ID, out.Response.Reliability, p.Expectation, "repaired below expectation")
		case s.reaug.backoff(e):
			rep.Retrying++
		default:
			// Out of budget. A client release may have beaten us to it.
			if _, err := s.Release(p.ID); err == nil {
				rep.Lost++
				metrics.reaugLost.Inc()
				s.alerter.EvalSession(p.ID, 0, p.Expectation, "lost: re-augmentation budget exhausted")
			}
		}
	}
	return rep
}

// repairPlan is what a repair starts from: base, the failed record as
// planRepair left it, and whether planRepair gave capacity back on the fork
// (base must then install even if the repair fails).
type repairPlan struct {
	base     *wal.PlacedRecord
	gaveBack bool
}

// planRepair sets batch item it up as the repair of session it.p.ar.Repair in
// epoch e (gone, or repaired by an earlier item of the batch: an error). Each
// position is anchored on its surviving primary, else on its lowest-ID
// surviving secondary, promoted; the other survivors within N_l^+(anchor)
// are held backups, the rest are given back. A position with no survivor
// gets a new primary from the admission policy; if none fits, the session
// gives all its capacity back and its whole chain is placed afresh, as at
// admission. It returns the primaries it charged to the fork, and refreshes
// before (the fork's residuals as the item started) so the caller measures
// only what they take.
func (s *Service) planRepair(e *epochLedger, fork *mec.Network, it *batchItem, earlier []*batchItem, before []float64) ([]int, error) {
	old, live := e.record(it.p.ar.Repair)
	if !live {
		return nil, fmt.Errorf("serve: session %d is gone", it.p.ar.Repair)
	}
	for _, o := range earlier {
		if o.plan != nil && o.plan.base.ID == old.ID {
			return nil, fmt.Errorf("serve: session %d is repaired twice in one batch", old.ID)
		}
	}
	snap, cat := slices.Clone(before), fork.Catalog()
	base := *old
	base.Primaries, base.Secondaries, base.PerNode = slices.Clone(old.Primaries), make([][]int, len(old.SFC)), maps.Clone(old.PerNode)
	it.plan = &repairPlan{base: &base}
	giveBack := func(u int, mhz float64) {
		if base.PerNode[u] -= mhz; !hosts(&base, u) {
			mhz += base.PerNode[u] // the session's last instance there: its whole share
			delete(base.PerNode, u)
		}
		fork.Release(u, mhz)
		it.plan.gaveBack = true
	}
	dropped := make(map[int]float64) // nominal MHz of the survivors released, by node
	var deadSFC, dead []int          // the positions with no survivor, and their functions
	for i, v := range old.Primaries {
		sec := old.Secondaries[i] // ascending
		if v < 0 && len(sec) > 0 {
			v, sec = sec[0], sec[1:]
		}
		if base.Primaries[i] = v; v < 0 {
			dead, deadSFC = append(dead, i), append(deadSFC, old.SFC[i])
			continue
		}
		near := fork.NeighborsWithinPlus(v, s.opt.HopBound)
		for _, u := range sec {
			if slices.Contains(near, u) {
				base.Secondaries[i] = append(base.Secondaries[i], u)
			} else {
				dropped[u] += cat.Type(old.SFC[i]).Demand
			}
		}
	}
	for _, u := range sortedNodes(dropped) {
		giveBack(u, dropped[u])
	}
	if it.plan.gaveBack {
		base.Reliability = survivorReliability(&base, cat)
		fork.CopyResiduals(before) // before's array, overwritten
	}
	it.req = mec.NewRequest(it.p.seq, old.SFC, old.Expectation, old.Source, old.Destination)
	if it.req.Primaries = slices.Clone(base.Primaries); len(dead) == 0 {
		return nil, nil
	}
	sub := mec.NewRequest(it.p.seq, deadSFC, old.Expectation, old.Source, old.Destination)
	if s.placePrimaries(fork, sub) == nil {
		for k, i := range dead {
			it.req.Primaries[i] = sub.Primaries[k]
		}
		return sub.Primaries, nil
	}
	for i := range base.Primaries {
		base.Primaries[i], base.Secondaries[i] = -1, nil
	}
	for _, u := range sortedNodes(base.PerNode) {
		giveBack(u, base.PerNode[u])
	}
	base.Reliability = 0
	fork.CopyResiduals(before)
	if err := s.placePrimaries(fork, it.req); err != nil {
		fork.RestoreResiduals(snap)
		it.plan = nil
		return nil, err
	}
	return it.req.Primaries, nil
}

// repaired returns the plan's base under the same ID with req's primaries,
// its held and new secondaries (ascending), PerNode grown by added (what the
// new instances took), the solve's reliability and Failed cleared.
func (pl *repairPlan) repaired(req *mec.Request, res *core.Result, added map[int]float64) *wal.PlacedRecord {
	rec := *pl.base
	rec.Primaries, rec.Secondaries, rec.PerNode = req.Primaries, res.Secondaries(), maps.Clone(pl.base.PerNode)
	for i, held := range pl.base.Secondaries {
		rec.Secondaries[i] = append(rec.Secondaries[i], held...)
		slices.Sort(rec.Secondaries[i])
	}
	for u, mhz := range added {
		rec.PerNode[u] += mhz
	}
	rec.Reliability, rec.Met, rec.Failed = res.Reliability, res.MetExpectation, false
	rec.Algorithm, rec.ServedBy = res.Algorithm, res.ServedBy
	return &rec
}

// hosts reports whether p keeps an instance on cloudlet u.
func hosts(p *wal.PlacedRecord, u int) bool {
	return slices.Contains(p.Primaries, u) || slices.ContainsFunc(p.Secondaries, func(sec []int) bool { return slices.Contains(sec, u) })
}

// survivorReliability is u_j over p's live instances (a destroyed primary
// reads -1).
func survivorReliability(p *wal.PlacedRecord, cat *mec.Catalog) float64 {
	rs, alive := make([]float64, len(p.SFC)), make([]int, len(p.SFC))
	for i, f := range p.SFC {
		if rs[i], alive[i] = cat.Type(f).Reliability, len(p.Secondaries[i]); p.Primaries[i] >= 0 {
			alive[i]++
		}
	}
	return reliability.ChainSurvivorReliability(rs, alive)
}

// ReaugPending returns the number of sessions queued for re-augmentation.
func (s *Service) ReaugPending() int {
	n := 0
	for _, p := range s.state.pin().recs {
		if p.Failed && !p.Met {
			n++
		}
	}
	return n
}

// SilentViolations audits the live placement set: every session whose
// attained reliability misses ρ must carry an active alert. It returns the
// IDs (ascending) of unalerted violations — loadgen's chaos tests assert
// this is empty ("zero silent SLO violations").
func (s *Service) SilentViolations() []int {
	var out []int
	for _, p := range s.state.unmetRecords() {
		if s.alerter.Level(watchdog.Key{Kind: watchdog.KindSession, ID: p.ID}) == watchdog.OK {
			out = append(out, p.ID)
		}
	}
	return out
}

// AuditOnce refreshes session alerts from the live placement set and runs one
// re-augmentation round — the probe loop's body, also callable directly by
// drivers that own the cadence (the chaos load generator).
func (s *Service) AuditOnce() ReaugReport {
	for _, p := range s.state.unmetRecords() {
		s.alerter.EvalSession(p.ID, p.Reliability, p.Expectation, "audit")
	}
	return s.ReaugmentOnce()
}

// SettleReaug runs AuditOnce until the re-augmentation queue is empty and
// returns each round's report. Backoff is counted in rounds: a queued session
// is tried in the next round and, after its k-th failure, 2^k rounds later,
// and it is dropped after reaugBudget attempts, so 1 + 2 + … +
// 2^(reaugBudget−1) = 2^reaugBudget − 1 rounds settle any queue, whatever
// stage its entries are at. Drivers that own the cadence (the DES after a
// crash, the chaos load generator after its last wave) call it to reach a
// quiescent state.
func (s *Service) SettleReaug() []ReaugReport {
	var reps []ReaugReport
	for len(reps) < 1<<reaugBudget-1 && s.ReaugPending() > 0 {
		reps = append(reps, s.AuditOnce())
	}
	return reps
}

// startProbe launches the watchdog probe loop (Options.ProbeEvery): every
// interval, session alerts are refreshed and one re-augmentation round runs.
// The loop owns the re-augmentation cadence in server mode (chaos/loadgen
// drivers instead call AuditOnce between waves); Close terminates it.
func (s *Service) startProbe(every time.Duration) {
	stop, done := make(chan struct{}), make(chan struct{})
	s.probeStop, s.probeDone = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.AuditOnce()
			case <-stop:
				return
			}
		}
	}()
}

// stopProbe terminates the probe loop, if one runs, and waits for it to
// exit.
func (s *Service) stopProbe() {
	if s.probeStop != nil {
		close(s.probeStop)
		<-s.probeDone
		s.probeStop = nil
	}
}

// seedFromRestore rebuilds watchdog state after a WAL restore: cloudlet
// alerts for every node marked down or degraded in the journal and session
// alerts for every replayed placement below its expectation (the
// re-augmentation queue is read off the records themselves). DESIGN.md §11
// lists what the journal does not carry.
func (s *Service) seedFromRestore() {
	e := s.state.pin()
	for _, v := range e.down {
		s.alerter.EvalCloudlet(v, HealthDown, "restored from WAL")
	}
	for _, v := range e.degraded {
		s.alerter.EvalCloudlet(v, HealthDegraded, "restored from WAL")
	}
	for _, p := range s.state.unmetRecords() {
		s.alerter.EvalSession(p.ID, p.Reliability, p.Expectation, "restored from WAL")
	}
}

func (s *Service) handleNode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var ev NodeEvent
	if err := decodeBody(w, r, &ev); err != nil {
		writeError(w, http.StatusBadRequest, "bad node event: %v", err)
		return
	}
	resp, err := s.ApplyHealth(ev.Node, ev.Health, ev.Note)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.alerter.Snapshot())
}
