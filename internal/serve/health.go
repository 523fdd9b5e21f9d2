package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

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
	switch health {
	case HealthDown, HealthUp, HealthDegraded:
	default:
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

	var updates []*wal.PlacedRecord
	destroyed := 0
	if health == HealthDown {
		updates, destroyed = s.destroyInstancesLocked(cur, node)
	}

	res := append([]float64(nil), cur.res...)
	switch health {
	case HealthDown:
		res[node] = 0
	case HealthDegraded:
		res[node] = (s.state.base.Capacity[node] - cur.consumedOn(node)) * degradedFactor
	case HealthUp:
		res[node] = s.state.base.Capacity[node] - cur.consumedOn(node)
	}
	if res[node] < 0 {
		res[node] = 0
	}
	ticket := s.state.installLocked(res, installOp{
		updates: updates,
		health:  &wal.HealthRecord{Node: node, To: health},
	})
	epoch := s.state.Epoch()
	s.state.commitMu.Unlock()
	s.state.flushWAL(ticket)

	switch health {
	case HealthDown:
		metrics.nodeDown.Inc()
	case HealthUp:
		metrics.nodeUp.Inc()
	case HealthDegraded:
		metrics.nodeDegraded.Inc()
	}
	metrics.instancesDestroyed.Add(int64(destroyed))
	s.alerter.EvalCloudlet(node, health, note)

	queued := 0
	for _, p := range updates {
		s.alerter.EvalSession(p.ID, p.Reliability, p.Expectation, fmt.Sprintf("node %d down", node))
		if s.reaug.add(p) {
			queued++
		}
	}
	if s.recorder != nil {
		s.recorder.Record(TraceOp{Op: OpNode, ID: node, Health: health})
	}
	return NodeResponse{
		Node: node, Health: health, Epoch: epoch,
		InstancesDestroyed: destroyed, SessionsAffected: len(updates), ReaugQueued: queued,
	}, nil
}

// destroyInstancesLocked rewrites every placement of the live epoch e that
// hosts instances on node: each gets a copy that has the node's instances
// removed and reliability recomputed from the survivors (copy-on-write, so a
// concurrent reader of the old record sees a consistent pre-failure view).
// The copies replace the records when the caller's install publishes them as
// installOp.updates. Returns them in ascending ID order and the instance
// count destroyed. Callers hold commitMu, so e stays the live epoch.
func (s *Service) destroyInstancesLocked(e *epochLedger, node int) ([]*wal.PlacedRecord, int) {
	var updates []*wal.PlacedRecord
	destroyed := 0
	for _, p := range e.recs {
		if _, hosts := p.PerNode[node]; !hosts {
			continue
		}
		np, lost := rewriteWithoutNode(p, node, s.state.base.Catalog())
		destroyed += lost
		updates = append(updates, np)
	}
	return updates, destroyed
}

// rewriteWithoutNode returns a copy of p with every instance hosted on node
// destroyed, Reliability/Met recomputed from the survivors and Failed set,
// plus the number of instances lost. The node's consumption share is
// dropped: that capacity is gone with the node, not releasable.
func rewriteWithoutNode(p *wal.PlacedRecord, node int, cat *mec.Catalog) (*wal.PlacedRecord, int) {
	np := *p // every field a failure does not touch — tenant and solver included
	np.Primaries = append([]int(nil), p.Primaries...)
	np.Secondaries = make([][]int, len(p.Secondaries))
	np.PerNode = make(map[int]float64, len(p.PerNode))
	for v, mhz := range p.PerNode {
		if v != node {
			np.PerNode[v] = mhz
		}
	}
	lost := 0
	for i, v := range np.Primaries {
		if v == node {
			np.Primaries[i] = -1
			lost++
		}
	}
	rs := make([]float64, len(p.SFC))
	survivors := make([]int, len(p.SFC))
	for i, sec := range p.Secondaries {
		var keep []int
		for _, u := range sec {
			if u == node {
				lost++
				continue
			}
			keep = append(keep, u)
		}
		np.Secondaries[i] = keep
		rs[i] = cat.Type(p.SFC[i]).Reliability
		survivors[i] = len(keep)
		if np.Primaries[i] >= 0 {
			survivors[i]++
		}
	}
	np.Reliability = reliability.ChainSurvivorReliability(rs, survivors)
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

// reaugEntry is one session awaiting proactive re-augmentation.
type reaugEntry struct {
	// id is the session's last-known placement ID — the alert key and, until
	// released, the live record to tear down before re-admitting.
	id  int
	req AugmentRequest
	// released reports the original placement was already torn down (a prior
	// attempt failed after its release); retries then skip straight to
	// re-admission.
	released bool
	attempts int
	// nextTick is the earliest re-augmentation round that may retry this
	// entry (exponential backoff in rounds: tick + 1<<attempts).
	nextTick int
}

// reaugQueue holds the sessions the watchdog has queued for proactive
// re-augmentation, keyed by original placement ID.
type reaugQueue struct {
	mu      sync.Mutex
	entries map[int]*reaugEntry
	tick    int
}

// add queues p if a node failure rewrote it below ρ — the one rule, live and
// on restore (a session answered below ρ at admission is alerted, never
// queued) — and reports whether it added an entry. Primaries are preserved
// exactly when every primary survived (the session keeps its anchors and
// only rebuilds backups); otherwise the server re-places them.
func (q *reaugQueue) add(p *wal.PlacedRecord) bool {
	if !p.Failed || p.Met {
		return false
	}
	req := AugmentRequest{
		SFC:         append([]int(nil), p.SFC...),
		Expectation: p.Expectation,
		Source:      p.Source,
		Destination: p.Destination,
		Tenant:      p.Tenant,
	}
	intact := true
	for _, v := range p.Primaries {
		if v < 0 {
			intact = false
			break
		}
	}
	if intact {
		req.Primaries = append([]int(nil), p.Primaries...)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.entries == nil {
		q.entries = make(map[int]*reaugEntry)
	}
	if _, dup := q.entries[p.ID]; dup {
		return false
	}
	q.entries[p.ID] = &reaugEntry{id: p.ID, req: req, nextTick: q.tick + 1}
	return true
}

// remove drops a session from the queue (released by the client, or settled).
func (q *reaugQueue) remove(id int) {
	q.mu.Lock()
	delete(q.entries, id)
	q.mu.Unlock()
}

// pending returns the queued session count.
func (q *reaugQueue) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// due advances the round counter and returns the entries eligible this round,
// in ascending original-ID order (deterministic).
func (q *reaugQueue) due() []*reaugEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tick++
	var out []*reaugEntry
	for _, e := range q.entries {
		if e.nextTick <= q.tick {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// backoff reschedules a failed entry exponentially (in rounds) and reports
// whether the retry budget still covers it. The entry is re-inserted: the
// attempt's release already dropped it from the map.
func (q *reaugQueue) backoff(e *reaugEntry, budget int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	e.attempts++
	if e.attempts >= budget {
		delete(q.entries, e.id)
		return false
	}
	e.nextTick = q.tick + 1<<e.attempts
	if q.entries == nil {
		q.entries = make(map[int]*reaugEntry)
	}
	q.entries[e.id] = e
	return true
}

// ReaugReport summarizes one re-augmentation round.
type ReaugReport struct {
	// Attempted counts sessions this round tried to re-augment.
	Attempted int `json:"attempted"`
	// Restored counts sessions whose re-augmentation met ρ again.
	Restored int `json:"restored"`
	// Degraded counts sessions re-served below ρ (degraded mode, alerted).
	Degraded int `json:"degraded"`
	// Retrying counts sessions left queued with backoff after a failed
	// attempt.
	Retrying int `json:"retrying"`
	// Lost counts sessions abandoned after the retry budget (sticky CRIT
	// alert remains).
	Lost int `json:"lost"`
	// Remapped maps each re-served session's old placement ID to its new one.
	Remapped map[int]int `json:"remapped,omitempty"`
}

// ReaugmentOnce runs one proactive re-augmentation round: every due session
// is released (once) and re-admitted through the normal admission pipeline —
// same micro-batching, same solver fallback chain, same seeding discipline —
// so re-augmentation inherits the service's determinism. Outcomes:
//
//   - re-admitted with u >= ρ: restored; the session's alert resolves.
//   - re-admitted with u < ρ: served degraded — the achieved reliability is
//     real and the alert moves to the new placement ID, so the shortfall is
//     never silent.
//   - admission failed: retried with exponential backoff until
//     reaugBudget (3) attempts, then declared lost (sticky CRIT alert).
//
// Callers drive rounds from one goroutine (the probe loop, or the chaos load
// generator between waves); the returned report maps old to new session IDs.
func (s *Service) ReaugmentOnce() ReaugReport {
	rep := ReaugReport{}
	for _, e := range s.reaug.due() {
		key := watchdog.Key{Kind: watchdog.KindSession, ID: e.id}
		if !e.released {
			p, live := s.state.pin().record(e.id)
			if !live {
				// Released by the client while queued: nothing to restore.
				s.reaug.remove(e.id)
				s.alerter.Resolve(key, "released while queued")
				continue
			}
			if p.Met {
				// Recovered without our help (e.g. a later event superseded
				// the failure).
				s.reaug.remove(e.id)
				s.alerter.Resolve(key, "recovered")
				continue
			}
		}
		rep.Attempted++
		metrics.reaugAttempts.Inc()
		if !e.released {
			if _, err := s.Release(e.id); err != nil {
				s.reaug.remove(e.id)
				continue
			}
			e.released = true
			// Release cleared the session's alert; keep the failure visible
			// until the re-augmentation outcome is known.
			s.alerter.EvalSession(e.id, 0, e.req.Expectation, "re-augmenting")
		}
		// Sync-enqueue: the trace must mark that this producer waits for the
		// answer before its next submission, so a replay reproduces the
		// one-request-per-batch pattern re-augmentation has here.
		var out Outcome
		t, err := s.enqueue(e.req, true)
		if err == nil {
			out = t.Wait()
		}
		if err != nil || out.Reason != ReasonPlaced {
			if s.reaug.backoff(e, reaugBudget) {
				rep.Retrying++
			} else {
				rep.Lost++
				metrics.reaugLost.Inc()
				s.alerter.EvalSession(e.id, 0, e.req.Expectation, "lost: re-augmentation budget exhausted")
			}
			continue
		}
		s.reaug.remove(e.id)
		if rep.Remapped == nil {
			rep.Remapped = make(map[int]int)
		}
		rep.Remapped[e.id] = out.Response.ID
		if out.Response.MetExpectation {
			rep.Restored++
			metrics.reaugRestored.Inc()
			s.alerter.Resolve(key, fmt.Sprintf("restored as session %d", out.Response.ID))
		} else {
			rep.Degraded++
			metrics.reaugDegradedTotal.Inc()
			s.alerter.Resolve(key, fmt.Sprintf("re-served degraded as session %d", out.Response.ID))
			// answerJob already raised the new session's alert; keep the
			// re-augmentation provenance on it.
			s.alerter.EvalSession(out.Response.ID, out.Response.Reliability, e.req.Expectation,
				fmt.Sprintf("degraded re-augmentation of session %d", e.id))
		}
	}
	return rep
}

// ReaugPending returns the number of sessions queued for re-augmentation.
func (s *Service) ReaugPending() int { return s.reaug.pending() }

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
// alerts for every node marked down or degraded in the journal, session
// alerts for every replayed placement below its expectation, and
// re-augmentation entries by reaugQueue.add's rule. DESIGN.md §11 lists what
// the journal does not carry.
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
		s.reaug.add(p)
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
