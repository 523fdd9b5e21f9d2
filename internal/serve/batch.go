package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/obs/trace"
	"repro/internal/serve/wal"
)

// Submission errors: Enqueue returns each inside a Rejection.
var (
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	ErrQueueFull     = errors.New("serve: admission queue full")
	ErrDraining      = errors.New("serve: draining, not accepting requests")
)

// Reason is how a request ended. It is set once, where the decision is made
// (Submit for a refused submission, executeBatch for a queued request), and
// the HTTP answer, the counters and the drivers all read it.
type Reason uint8

const (
	ReasonPlaced     Reason = iota // placed and committed (200)
	ReasonInfeasible               // no servable augmentation: primaries or solve failed (422)
	ReasonDeadline                 // the request's own deadline_ms ran out (504)
	ReasonShed                     // shed by knapsack admission under scarcity (429)
	ReasonQuota                    // the tenant's token bucket was empty at submission (429)
	ReasonQueueFull                // the queue or the tenant's fair share was full (429)
	ReasonDraining                 // submitted after Drain began (503)
	numReasons
)

var reasonNames = [numReasons]string{"placed", "infeasible", "deadline", "shed", "quota", "queue_full", "draining"}

// reasonStatus is the HTTP status each reason answers with.
var reasonStatus = [numReasons]int{
	http.StatusOK, http.StatusUnprocessableEntity, http.StatusGatewayTimeout,
	http.StatusTooManyRequests, http.StatusTooManyRequests, http.StatusTooManyRequests,
	http.StatusServiceUnavailable,
}

// String is the reason's name, the serve_rejected_total label.
func (r Reason) String() string { return reasonNames[r] }

// Status is the HTTP status a request that ended with r is answered with.
func (r Reason) Status() int { return reasonStatus[r] }

// Rejection is the error Enqueue returns for a refused submission: its
// reason, and an error that wraps ErrQuotaExceeded, ErrQueueFull or
// ErrDraining (its text is the refusal's HTTP error body).
type Rejection struct {
	Reason Reason
	error
}

// Unwrap returns the wrapped error, for errors.Is.
func (e *Rejection) Unwrap() error { return e.error }

// pending is one request waiting in the admission queue.
type pending struct {
	seq      int
	ar       AugmentRequest // validated, Tenant resolved (never empty); its slices are the pending's own
	enqueued time.Time
	done     chan outcome // buffered; the batcher never blocks on it

	// tr is the request's lifecycle trace (nil with tracing disabled). It
	// travels with the pending through the queue channel — single-owner
	// everywhere — and is completed before the done send publishes it.
	tr        *trace.Trace
	queueSpan int
}

// outcome is the batcher's answer to one pending request.
type outcome struct {
	reason    Reason
	errText   string
	placed    *wal.PlacedRecord
	initial   float64
	queueWait time.Duration
	solveTime time.Duration
	// solveNote/commitNote annotate the request's trace spans ("solved",
	// "conflict_resolve", ...); trace is the completed snapshot delivered to
	// the waiter.
	solveNote  string
	commitNote string
	trace      *trace.Snapshot
}

// queue is the bounded admission queue plus its micro-batching machinery:
// one batcher goroutine that forms a batch under the size bound, executes it
// exactly once against the live epoch, and then forms the next. Batch k
// therefore always executes against the ledger batch k−1 left, and batch k's
// membership is fixed by the submission log and its wave boundaries — which
// is the whole determinism argument; a committed batch's WAL flush and
// answers are handed off so batch k+1 executes meanwhile.
//
// The batcher is clock-free: it pops until the batch is full or the queue is
// empty, then executes at once, so batches grow only while the slots or the
// previous execution are busy. A producer that submits several requests
// before waiting on any brackets them as a wave (Service.BeginWave); the
// batcher pops nothing while a wave is open, so it sees the wave whole and
// cuts it into batches — and, under fair queueing, into a deficit-round-robin
// order — that depend on the wave's content alone, never on how far the
// producer had got when the batcher looked. Placements are therefore
// bit-identical at any worker × batcher count for the same submission log
// with the same wave boundaries; concurrent un-bracketed producers (HTTP
// connections) get valid placements whose batch composition follows arrival
// timing.
//
// The queue itself is a tenant-aware admission.FairQueue behind one mutex:
// FIFO discipline preserves global arrival order exactly; fair/knapsack run
// deficit round-robin over per-tenant sub-queues. Tenant token buckets are
// checked at Submit on the virtual batch clock (admission sequence ÷ batch
// size), so quota decisions are pure functions of the admission order and
// replay bit-identically. notEmpty is a one-slot wakeup signal: pushes and
// wave boundaries send non-blocking, and the batcher re-polls after
// consuming one, so wakeups are never lost.
type queue struct {
	svc *Service
	mu  sync.Mutex
	fq  *admission.FairQueue[*pending]
	// Open producer waves, under mu: waves counts them, waveSince is when the
	// count last left zero, and waveGen is bumped when the batcher gives up
	// on the open ones (Options.BatchWait), which turns their end functions
	// into no-ops.
	waves     int
	waveSince time.Time
	waveGen   uint64
	notEmpty  chan struct{}
	// slots holds one token per batch that may be between collection and
	// answer (Options.Batchers): the batcher takes a token before forming a
	// batch and the batch returns it once its requests are answered. This
	// keeps the queue's backpressure bound exactly at QueueDepth — requests
	// never sit hidden in a pipeline — and bounds the goroutines flushing and
	// answering committed batches.
	slots    chan struct{}
	draining atomic.Bool
	stopCh   chan struct{}
	doneCh   chan struct{}
	wg       sync.WaitGroup // every committed batch being answered
}

func newQueue(svc *Service, depth, batchers int) *queue {
	q := &queue{
		svc:      svc,
		fq:       admission.NewFairQueue[*pending](svc.tenantSpecs(), depth, svc.opt.Admission != AdmissionFIFO),
		notEmpty: make(chan struct{}, 1),
		slots:    make(chan struct{}, batchers),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	for i := 0; i < batchers; i++ {
		q.slots <- struct{}{}
	}
	go q.run()
	return q
}

// Submit enqueues p without blocking, or refuses it with a Rejection: a
// draining queue with ReasonDraining, an empty tenant token bucket with
// ReasonQuota, a full queue (global bound, or the tenant's fair-share bound)
// with ReasonQueueFull.
//
// The tenant's bucket is refilled on the virtual batch clock — the admission
// sequence number divided by the batch size — before the take. Sequence
// numbers are assigned even to rejected submissions and replay reproduces
// the gaps (AdvanceSeq), so the refill schedule, and therefore every quota
// decision, is bit-identical between a recorded run and its replay.
func (q *queue) Submit(p *pending) error {
	if q.draining.Load() {
		return &Rejection{ReasonDraining, ErrDraining}
	}
	ts := q.svc.tenants[p.ar.Tenant]
	q.mu.Lock()
	if ts.bucket != nil {
		ts.bucket.Refill(int64(p.seq) / int64(q.svc.opt.BatchSize))
		if ts.bucket.Tokens() < 1 {
			q.mu.Unlock()
			ts.account(&outcome{reason: ReasonQuota})
			return &Rejection{ReasonQuota, fmt.Errorf("%w: tenant %q", ErrQuotaExceeded, p.ar.Tenant)}
		}
	}
	if err := q.fq.Push(p.ar.Tenant, p); err != nil {
		q.mu.Unlock()
		ts.account(&outcome{reason: ReasonQueueFull})
		full := ErrQueueFull
		if errors.Is(err, admission.ErrTenantSaturated) {
			full = fmt.Errorf("%w: tenant %q fair-share sub-queue full", ErrQueueFull, p.ar.Tenant)
		}
		return &Rejection{ReasonQueueFull, full}
	}
	if ts.bucket != nil {
		ts.bucket.TryTake()
	}
	depth, tdepth := q.fq.Len(), q.fq.TenantLen(p.ar.Tenant)
	inWave := q.waves > 0
	q.mu.Unlock()
	metrics.queueDepth.Set(float64(depth))
	ts.ins.depth.Set(float64(tdepth))
	metrics.inflight.Add(1)
	if !inWave {
		// Inside a wave the batcher is parked until the wave ends; waking
		// it per push would only re-park it.
		q.wake()
	}
	return nil
}

// wake nudges the batcher without blocking.
func (q *queue) wake() {
	select {
	case q.notEmpty <- struct{}{}:
	default:
	}
}

// beginWave opens a producer wave (see Service.BeginWave) and returns the
// function that ends it.
func (q *queue) beginWave() func() {
	q.mu.Lock()
	if q.waves == 0 {
		q.waveSince = time.Now()
	}
	q.waves++
	gen := q.waveGen
	q.mu.Unlock()
	// An idle batcher must learn of the wave to start its BatchWait bound.
	q.wake()
	return func() {
		q.mu.Lock()
		live := gen == q.waveGen
		if live {
			q.waves--
		}
		q.mu.Unlock()
		if live {
			q.wake()
		}
	}
}

// tryPop dequeues the next request under the configured discipline, updating
// the per-tenant depth gauge. While a producer wave is open it pops nothing
// and returns how much longer the wave may hold the batcher; once that
// bound (Options.BatchWait) has run out the open waves are abandoned with a
// warning and popping resumes. A draining queue accepts no submissions, so a
// wave has nothing left to add and does not hold it.
func (q *queue) tryPop() (p *pending, hold time.Duration) {
	abandoned := 0
	q.mu.Lock()
	if q.waves > 0 && !q.draining.Load() {
		if hold = q.svc.opt.BatchWait - time.Since(q.waveSince); hold > 0 {
			q.mu.Unlock()
			return nil, hold
		}
		abandoned = q.waves
		q.waves = 0
		q.waveGen++
	}
	p, tenant, ok := q.fq.Pop()
	var tdepth int
	if ok {
		tdepth = q.fq.TenantLen(tenant)
	}
	q.mu.Unlock()
	if abandoned > 0 {
		slog.Warn("serve: open producer wave held the batcher past BatchWait; batching without it",
			"open_waves", abandoned, "batch_wait", q.svc.opt.BatchWait)
	}
	if ok {
		q.svc.tenants[tenant].ins.depth.Set(float64(tdepth))
	}
	return p, 0
}

// Len returns the number of requests currently queued across all tenants.
func (q *queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.fq.Len()
}

// Drain stops accepting new requests, flushes every request already queued
// through the normal batch path, and returns when every batch is answered.
// Safe to call more than once.
func (q *queue) Drain() {
	if q.draining.CompareAndSwap(false, true) {
		close(q.stopCh)
	}
	<-q.doneCh
}

// run is the batcher: take a slot, collect the next batch, commit it, and
// hand the committed batch to a goroutine of its own that makes it durable,
// answers it, and returns its slot — so batch k+1 executes, and its WAL
// append joins the group commit, while batch k's fsync is in flight. Batches
// execute in the order they were collected by construction. Draining changes
// nothing but the end: once the queue is empty run waits for the in-flight
// batches to be answered.
func (q *queue) run() {
	defer close(q.doneCh)
	for {
		<-q.slots // wait for a free slot before forming a batch
		batch := q.collect()
		if batch == nil {
			q.wg.Wait()
			return
		}
		metrics.queueDepth.Set(float64(q.Len()))
		sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
		job := &batchJob{batch: batch, pickup: time.Now()}
		exec, ticket := q.svc.commitJob(job)
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			q.svc.answerJob(job, exec, ticket)
			q.slots <- struct{}{}
		}()
	}
}

// collect forms the next batch: it blocks for the first request, then keeps
// popping until the batch is full or the queue is empty with no producer
// wave open, and returns at once — no timer pads a short batch. It returns
// nil when the queue is draining and empty. Under the knapsack discipline the
// bound is knapsackWindowBatches times wider, so the scarcity-mode knapsack
// has a meaningful candidate set to choose from; the solve still covers only
// the admitted subset.
func (q *queue) collect() []*pending {
	maxB := q.svc.opt.BatchSize
	if q.svc.opt.Admission == AdmissionKnapsack {
		maxB *= knapsackWindowBatches
	}
	var batch []*pending
	for len(batch) < maxB {
		p, hold := q.tryPop()
		if p != nil {
			batch = append(batch, p)
			continue
		}
		if hold == 0 && (len(batch) > 0 || q.draining.Load()) {
			break
		}
		// Idle, or held by an open wave: sleep until a push, a wave boundary,
		// the end of the hold, or the drain.
		if hold == 0 {
			select {
			case <-q.notEmpty:
			case <-q.stopCh:
			}
			continue
		}
		timer := time.NewTimer(hold)
		select {
		case <-q.notEmpty:
		case <-timer.C:
		case <-q.stopCh:
		}
		timer.Stop()
	}
	return batch
}

// batchJob is one collected micro-batch: its requests in admission-sequence
// order, when the batcher finished collecting it, and the bounds of its WAL
// flush wait (zero unless its install was journaled) — the trace spans' raw
// material.
type batchJob struct {
	batch  []*pending
	pickup time.Time

	fsyncStart, fsyncEnd time.Time
}

// admitSeedStep and solveSeedStep decorrelate the per-request admission and
// solver RNG streams; both are pure functions of the admission sequence
// number, which is what keeps placements bit-identical across worker counts.
const (
	admitSeedStep = 1_000_003
	solveSeedStep = 10_007
)

func (s *Service) admitSeed(seq int) int64 { return s.opt.Seed + int64(seq)*admitSeedStep }
func (s *Service) solveSeed(seq int) int64 { return s.opt.Seed + int64(seq)*solveSeedStep + 1 }

// seededRand returns a *rand.Rand over core.CheapSource: bit-identical for
// a given seed everywhere, and cheap enough to build per request (profiling
// showed the stdlib source's ~10µs table warmup dominated admission, which
// runs under commitMu).
func seededRand(seed int64) *rand.Rand { return rand.New(core.CheapSource(seed)) }

// batchItem carries one request through the three phases of its batch's
// execution.
type batchItem struct {
	p        *pending
	shed     bool // dropped by knapsack admission under scarcity (phase 0)
	req      *mec.Request
	plan     *repairPlan // set for a repair
	inst     *core.Instance
	primNode map[int]float64 // MHz consumed for new primaries, for rollback/release
	initial  float64
	failErr  error // phase-1 admission failure
	res      *core.Result
	trialErr *engine.TrialError

	conflictResolve bool // commit conflict forced a serial re-solve
}

func (it *batchItem) seq() int { return it.p.seq }

// batchExec is the outcome of executing one batch against one epoch: the
// successor residual vector, the placements to record (admitted, and
// repaired under their own IDs), and one outcome per request (parallel to the
// batch). Pure data — nothing is published until commitJob installs it.
type batchExec struct {
	outcomes  []outcome
	admits    []*wal.PlacedRecord
	updates   []*wal.PlacedRecord
	res       []float64
	conflicts int64
	solveTime time.Duration

	// Phase boundaries of the execution (start → solveStart → solveEnd →
	// end) — the trace spans' raw material, stamped once per batch.
	start      time.Time
	solveStart time.Time
	solveEnd   time.Time
	end        time.Time
}

// commitJob executes one batch against the live epoch, under the install
// lock, and publishes the result. Only the batcher calls it, one batch at a
// time, and releases and health transitions take the same lock, so the
// installed transition for batch k is always f(epoch_{k-1}, batch_k) with f
// deterministic: given the same batches (see queue), the epoch sequence —
// and every placement — is bit-identical at any worker and batcher count.
//
// A batch that admitted nothing and left the ledger bit-identical (the
// common all-infeasible case) installs no epoch and journals nothing. The
// returned durability ticket is nil then, and without a WAL; otherwise the
// epoch is already visible but the caller must flush the ticket before any
// client sees an answer.
func (s *Service) commitJob(job *batchJob) (*batchExec, *walTicket) {
	metrics.batches.Inc()
	metrics.batchSize.Observe(float64(len(job.batch)))
	s.state.commitMu.Lock()
	live := s.state.pin()
	exec := s.executeBatch(live, job.batch)
	var ticket *walTicket
	if len(exec.admits)+len(exec.updates) > 0 || !sameBits(exec.res, live.res) {
		ticket = s.state.installLocked(exec.res, installOp{admits: exec.admits, updates: exec.updates})
	}
	s.state.commitMu.Unlock()
	metrics.stageGate.Observe(exec.start.Sub(job.pickup))
	metrics.conflicts.Add(exec.conflicts)
	return exec, ticket
}

// answerJob makes a committed batch durable, then answers every request in
// it (clients never observe a non-durable admission). It runs off the
// batcher, so the next batch commits while this one's fsync and channel
// sends are in flight. Each request's trace is completed and snapshotted into
// the flight recorder before the done send, whose channel synchronization
// publishes the trace to the waiter.
func (s *Service) answerJob(job *batchJob, exec *batchExec, ticket *walTicket) {
	if ticket != nil {
		job.fsyncStart = time.Now()
		s.state.flushWAL(ticket)
		job.fsyncEnd = time.Now()
		metrics.stageFsync.Observe(job.fsyncEnd.Sub(job.fsyncStart))
	}
	end := time.Now()
	for i := range exec.outcomes {
		p := job.batch[i]
		out := exec.outcomes[i]
		out.queueWait = end.Sub(p.enqueued)
		metrics.queueWait.Observe(job.pickup.Sub(p.enqueued).Seconds())
		if rec := out.placed; rec != nil && !rec.Met && p.ar.Repair == 0 {
			// Degraded answer: the request is served with its achieved
			// reliability, never silently — the watchdog tracks every live
			// placement running below its expectation (ReaugmentOnce
			// alerts a degraded repair).
			metrics.degradedAnswers.Inc()
			s.alerter.EvalSession(rec.ID, rec.Reliability, rec.Expectation, "admitted below expectation")
		}
		s.tenants[p.ar.Tenant].account(&out)
		metrics.inflight.Add(-1)
		if p.tr != nil {
			snap := s.completeTrace(p, job, exec, &out, end)
			out.trace = &snap
			s.flight.Record(snap)
		}
		p.done <- out
	}
}

// completeTrace stamps the request's stage spans from the batch's measured
// phase boundaries (one clock read per batch, not per request), ends the root
// at end, and returns the snapshot.
func (s *Service) completeTrace(p *pending, job *batchJob, exec *batchExec, out *outcome, end time.Time) trace.Snapshot {
	tr := p.tr
	tr.EndSpanAt(p.queueSpan, job.pickup)
	gate := tr.StartSpanAt("gate_wait", trace.Root, job.pickup)
	tr.EndSpanAt(gate, exec.start)
	ex := tr.StartSpanAt("exec", trace.Root, exec.start)
	admit := tr.StartSpanAt("admit", ex, exec.start)
	tr.EndSpanAt(admit, exec.solveStart)
	solve := tr.StartSpanAt("solve", ex, exec.solveStart)
	if out.solveNote != "" {
		tr.Annotate(solve, out.solveNote)
	}
	tr.EndSpanAt(solve, exec.solveEnd)
	commit := tr.StartSpanAt("commit", ex, exec.solveEnd)
	if out.commitNote != "" {
		tr.Annotate(commit, out.commitNote)
	}
	tr.EndSpanAt(commit, exec.end)
	tr.EndSpanAt(ex, exec.end)
	if !job.fsyncEnd.IsZero() {
		fs := tr.StartSpanAt("wal_fsync", trace.Root, job.fsyncStart)
		tr.EndSpanAt(fs, job.fsyncEnd)
	}
	tr.Annotate(trace.Root, fmt.Sprintf("status=%d", out.reason.Status()))
	tr.EndSpanAt(trace.Root, end)
	return tr.Snapshot()
}

// executeBatch runs one micro-batch against the epoch e, entirely on a
// private fork of the ledger, through three phases (after knapsack shedding
// as phase 0):
//
//  1. Place (or charge) primaries in sequence order on the fork — for a
//     repair, anchor each position on a survivor (planRepair) — and build
//     read-only instances against the post-primaries ledger.
//  2. Solve every instance in parallel on the deterministic trial engine,
//     fail-soft, each under its own request's deadline (none unless the
//     request carried deadline_ms).
//  3. Commit in sequence order onto the fork. A within-batch commit conflict
//     (an earlier commit consumed the headroom this solution budgeted
//     against) triggers one serial re-solve under the same deadline.
//
// The returned execution is pure data, a pure function of (e, batch);
// commitJob decides whether it installs.
func (s *Service) executeBatch(e *epochLedger, batch []*pending) *batchExec {
	fork := s.state.forkNet(e)
	items := make([]*batchItem, len(batch))
	exec := &batchExec{outcomes: make([]outcome, len(batch)), start: time.Now()}

	// Phase 0: knapsack admission under scarcity. The shed mask is a pure
	// function of (epoch, batch), so shed decisions inherit the same
	// bit-identity guarantee as placements.
	shed := s.knapsackShed(e, batch)

	// Phase 1: primaries + instances. One buffer serves every residual
	// snapshot the batch takes (before-images here, rollback images in phase
	// 3): each is dead before the next is taken.
	scratch := make([]float64, 0, fork.NumNodes())
	for i, p := range batch {
		it := &batchItem{p: p}
		items[i] = it
		if shed != nil && shed[i] {
			it.shed = true
			continue
		}
		before := fork.CopyResiduals(scratch)
		var charged []int // the primaries the fork was charged for
		if p.ar.Repair != 0 {
			charged, it.failErr = s.planRepair(e, fork, it, items[:i], before)
		} else {
			it.req = mec.NewRequest(p.seq, p.ar.SFC, p.ar.Expectation, p.ar.Source, p.ar.Destination)
			if it.req.Primaries = p.ar.Primaries; len(it.req.Primaries) > 0 {
				it.failErr = consumePrimaries(fork, it.req, before)
			} else {
				it.failErr = s.placePrimaries(fork, it.req)
			}
			charged = it.req.Primaries
		}
		if it.failErr == nil {
			// Record the measured consumption, not the nominal demand: what a
			// release returns must be exactly what the ledger lost.
			it.primNode = make(map[int]float64, len(charged))
			for _, v := range charged {
				it.primNode[v] = before[v] - fork.Residual(v)
			}
		}
	}
	var toSolve []*batchItem
	for _, it := range items {
		if it.shed || it.failErr != nil {
			continue
		}
		if it.plan != nil {
			it.req.Held = make([]int, len(it.req.SFC))
			for i, held := range it.plan.base.Secondaries {
				it.req.Held[i] = len(held)
			}
		}
		it.inst = core.NewInstance(fork, it.req, core.Params{L: s.opt.HopBound})
		it.initial = it.inst.InitialReliability
		toSolve = append(toSolve, it)
	}

	// Phase 2: parallel fail-soft solve.
	exec.solveStart = time.Now()
	metrics.stageAdmit.Observe(exec.solveStart.Sub(exec.start))
	if len(toSolve) > 0 {
		seeder := func(t int) int64 { return s.solveSeed(toSolve[t].seq()) }
		results, fails, _ := engine.RunPartial(context.Background(),
			len(toSolve), s.opt.Workers, seeder,
			func(t int, rng *rand.Rand) (*core.Result, error) {
				it := toSolve[t]
				if d := time.Duration(it.p.ar.DeadlineMS) * time.Millisecond; d > 0 {
					// The request's own deadline, armed as its solve starts; a
					// conflict re-solve inherits the same instant.
					it.inst.Deadline = time.Now().Add(d)
				}
				return s.solveBy(it.inst, rng)
			},
			engine.FailSoftOptions{
				Tag: "serve",
				// The cheap-seed source keeps sub-100µs solves from being
				// dominated by rng construction; still a pure function of the
				// seed, so placements stay bit-identical across worker and
				// batcher counts.
				Source: core.CheapSource,
			})
		for t, res := range results {
			toSolve[t].res = res
		}
		for i := range fails {
			toSolve[fails[i].Trial].trialErr = &fails[i]
		}
	}
	exec.solveEnd = time.Now()
	exec.solveTime = exec.solveEnd.Sub(exec.solveStart)
	metrics.stageSolve.Observe(exec.solveTime)

	// Phase 3: commit in sequence order onto the fork.
	for i, it := range items {
		out := s.finishItem(fork, it, exec, scratch)
		out.solveNote = solveNoteOf(it, out.reason)
		if it.conflictResolve {
			out.commitNote = "conflict_resolve"
		}
		exec.outcomes[i] = out
	}
	exec.res = fork.ResidualSnapshot()
	exec.end = time.Now()
	metrics.stageCommit.Observe(exec.end.Sub(exec.solveEnd))
	metrics.stageExec.Observe(exec.end.Sub(exec.start))
	return exec
}

// solveNoteOf names how an item's solve phase ended, given the reason it was
// answered with, for its trace span annotation.
func solveNoteOf(it *batchItem, r Reason) string {
	switch {
	case r == ReasonShed:
		return "shed"
	case it.failErr != nil:
		return "admit_failed"
	case r == ReasonDeadline:
		return "deadline"
	case it.trialErr != nil:
		return "failed"
	default:
		return "solved"
	}
}

// placePrimaries places a request's primaries on the fork with the
// configured admission policy, consuming capacity there.
func (s *Service) placePrimaries(work *mec.Network, req *mec.Request) error {
	if s.opt.AdmitPolicy == AdmitMaxReliability {
		return admission.PlaceMaxReliability(work, req)
	}
	return admission.PlaceRandom(work, req, seededRand(s.admitSeed(req.ID)))
}

// finishItem commits one item onto the fork and produces its outcome (not
// yet delivered — answerJob answers the request once the batch is durable).
// scratch is the batch's residual rollback buffer.
func (s *Service) finishItem(work *mec.Network, it *batchItem, exec *batchExec, scratch []float64) outcome {
	fail := func(r Reason, err error) outcome {
		for _, v := range sortedNodes(it.primNode) { // hand back the new primaries' MHz
			work.Release(v, it.primNode[v])
		}
		if it.plan != nil && it.plan.gaveBack {
			// The fork took capacity back from the session: it keeps its ID
			// and what phase 1 left it until a retry repairs it.
			exec.updates = append(exec.updates, it.plan.base)
		}
		return outcome{reason: r, errText: err.Error(), solveTime: exec.solveTime}
	}

	if it.shed {
		// Phase 0 dropped the request before any primaries were placed: the
		// fork never saw it.
		return fail(ReasonShed, errors.New("serve: shed by knapsack admission under scarcity"))
	}
	if it.failErr != nil {
		return fail(ReasonInfeasible, fmt.Errorf("admission: %w", it.failErr))
	}
	if it.trialErr != nil {
		return fail(failReason(it.trialErr.Err), it.trialErr.Err)
	}

	// A capacity-violating result (possible for the Randomized solver) is not
	// servable.
	res := it.res
	if res == nil || res.Violated {
		return fail(ReasonInfeasible, fmt.Errorf("serve: solver %s produced no usable result", s.opt.Solver.Name()))
	}
	consumed, err := commitSecondaries(work, it.req.SFC, res.PerBin, scratch)
	if err != nil {
		// Within-batch commit conflict: an earlier commit in this batch
		// consumed the headroom. Re-solve once against the fork's live view,
		// serially, with a deterministically re-derived seed.
		exec.conflicts++
		it.conflictResolve = true
		if res, err = s.resolveConflict(work, it); err != nil {
			return fail(failReason(err), err)
		}
		if consumed, err = commitSecondaries(work, it.req.SFC, res.PerBin, scratch); err != nil {
			return fail(ReasonInfeasible, err)
		}
	}

	perNode := it.primNode
	for u, mhz := range consumed {
		perNode[u] += mhz
	}
	if it.plan != nil {
		rec := it.plan.repaired(it.req, res, perNode)
		exec.updates = append(exec.updates, rec)
		return outcome{reason: ReasonPlaced, placed: rec, initial: it.initial, solveTime: exec.solveTime}
	}
	rec := &wal.PlacedRecord{
		ID:          it.req.ID,
		Tenant:      it.p.ar.Tenant,
		SFC:         it.req.SFC,
		Expectation: it.req.Expectation,
		Source:      it.req.Source,
		Destination: it.req.Destination,
		Primaries:   it.req.Primaries,
		Secondaries: res.Secondaries(),
		Reliability: res.Reliability,
		Met:         res.MetExpectation,
		Algorithm:   res.Algorithm,
		ServedBy:    res.ServedBy,
		PerNode:     perNode,
	}
	exec.admits = append(exec.admits, rec)
	return outcome{
		reason: ReasonPlaced, placed: rec,
		initial: it.initial, solveTime: exec.solveTime,
	}
}

// resolveConflict rebuilds the instance against the fork's current view and
// solves it serially (attempt seed RetrySeed(solveSeed, 1), mirroring the
// fail-soft engine's retry derivation) under the item's original deadline.
// It errors when the re-solve fails or its result is not servable.
func (s *Service) resolveConflict(work *mec.Network, it *batchItem) (*core.Result, error) {
	inst := core.NewInstance(work, it.req, core.Params{L: s.opt.HopBound})
	inst.Deadline = it.inst.Deadline
	rng := seededRand(engine.RetrySeed(s.solveSeed(it.seq()), 1))
	res, err := s.solveBy(inst, rng)
	if errors.Is(err, core.ErrDeadline) {
		return nil, err
	}
	if err != nil || res == nil || res.Violated {
		return nil, errors.New("serve: re-solve after commit conflict failed")
	}
	return res, nil
}

// solveBy runs the configured solver on inst. A solve that returns at or
// after inst.Deadline is reported as core.ErrDeadline whatever it returned:
// the request's time is up, and it ends on its deadline like a solve that
// gave up.
func (s *Service) solveBy(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
	res, err := s.opt.Solver.Solve(inst, rng)
	if !inst.Deadline.IsZero() && !errors.Is(err, core.ErrDeadline) && !time.Now().Before(inst.Deadline) {
		return nil, fmt.Errorf("%w: the solve returned after the request's deadline", core.ErrDeadline)
	}
	return res, err
}

// failReason decides a failed solve: the deadline when the request ran out
// of its own time, infeasible otherwise.
func failReason(err error) Reason {
	if errors.Is(err, core.ErrDeadline) {
		return ReasonDeadline
	}
	return ReasonInfeasible
}
