package serve

import "repro/internal/obs"

// metrics are the serving layer's obs instruments, resolved once at package
// init. All recording happens in the queue/batch machinery and the HTTP
// handlers — never inside the seeded solver calls — so instrumented servers
// keep the engine's worker-count bit-identity guarantee.
var metrics = struct {
	queueDepth    *obs.Gauge     // requests currently waiting in the admission queue
	queueWait     *obs.Histogram // enqueue → batch-pickup latency per request
	batchSize     *obs.Histogram // requests per solved micro-batch
	batches       *obs.Counter   // micro-batches solved
	inflight      *obs.Gauge     // requests admitted to the queue but not yet answered
	admitted      *obs.Counter   // requests placed and committed
	infeasible    *obs.Counter   // requests that no solver stage could serve
	deadlineHits  *obs.Counter   // requests dropped on the per-request deadline
	conflicts     *obs.Counter   // commit conflicts that forced a serial re-solve
	released      *obs.Counter   // placements torn down via /v1/release
	epochSeq      *obs.Gauge     // current MVCC epoch sequence number
	epochAdvances *obs.Counter   // epochs installed (batch commits, releases, restores)
	walAppends    *obs.Counter   // WAL entries appended
	walSnapshots  *obs.Counter   // WAL snapshots (checkpoints) written
	walErrors     *obs.Counter   // WAL append/snapshot failures (service degrades to non-durable)
	walFsync      *obs.Histogram // latency of each performed WAL fsync (coalesced group commits count once)

	// Live failure handling (watchdog + re-augmentation).
	nodeDown           *obs.Counter // cloudlet down transitions applied
	nodeUp             *obs.Counter // cloudlet up (recovery) transitions applied
	nodeDegraded       *obs.Counter // cloudlet degraded transitions applied
	instancesDestroyed *obs.Counter // VNF instances destroyed by node failures
	reaugAttempts      *obs.Counter // re-augmentation attempts submitted
	reaugRestored      *obs.Counter // sessions fully restored to u >= ρ by re-augmentation
	reaugDegradedTotal *obs.Counter // sessions re-served in degraded mode (u < ρ, alerted)
	reaugLost          *obs.Counter // sessions abandoned after the re-augmentation budget
	degradedAnswers    *obs.Counter // fresh admissions answered with u < ρ (Met=false)

	// Multi-tenant admission economics.
	scarcity     *obs.Gauge   // residual-capacity fraction observed at the last knapsack check
	scarceMode   *obs.Gauge   // 1 while knapsack admission is engaged, else 0
	shedTotal    *obs.Counter // requests shed by knapsack admission under scarcity
	quotaDenials *obs.Counter // submissions rejected by a tenant token bucket

	// Per-stage span handles for the batch pipeline, pre-resolved so the hot
	// path pays zero lookups/allocations per observation (see obs.SpanHandle).
	// Stage boundaries are stamped once per batch and observed here; the same
	// timestamps feed the per-request trace spans.
	stageAdmit  obs.SpanHandle // phase 1: primaries + instances
	stageSolve  obs.SpanHandle // phase 2: parallel fail-soft solving
	stageCommit obs.SpanHandle // phase 3: sequential fork commits
	stageExec   obs.SpanHandle // one whole batch execution (phases 1–3)
	stageGate   obs.SpanHandle // batch collected → execution start (install-lock wait)
	stageFsync  obs.SpanHandle // post-install WAL flush wait
}{
	queueDepth:         obs.Default().Gauge("serve_queue_depth"),
	queueWait:          obs.Default().Histogram("serve_queue_wait_seconds", obs.DurationBuckets),
	batchSize:          obs.Default().Histogram("serve_batch_size", obs.CountBuckets),
	batches:            obs.Default().Counter("serve_batches_total"),
	inflight:           obs.Default().Gauge("serve_inflight"),
	admitted:           obs.Default().Counter("serve_admitted_total"),
	infeasible:         obs.Default().Counter("serve_infeasible_total"),
	deadlineHits:       obs.Default().Counter("serve_deadline_hits_total"),
	conflicts:          obs.Default().Counter("serve_commit_conflicts_total"),
	released:           obs.Default().Counter("serve_released_total"),
	epochSeq:           obs.Default().Gauge("serve_epoch"),
	epochAdvances:      obs.Default().Counter("serve_epoch_advances_total"),
	walAppends:         obs.Default().Counter("serve_wal_appends_total"),
	walSnapshots:       obs.Default().Counter("serve_wal_snapshots_total"),
	walErrors:          obs.Default().Counter("serve_wal_errors_total"),
	walFsync:           obs.Default().Histogram("serve_wal_fsync_seconds", obs.DurationBuckets),
	nodeDown:           obs.Default().Counter("serve_node_transitions_total", "to", "down"),
	nodeUp:             obs.Default().Counter("serve_node_transitions_total", "to", "up"),
	nodeDegraded:       obs.Default().Counter("serve_node_transitions_total", "to", "degraded"),
	instancesDestroyed: obs.Default().Counter("serve_instances_destroyed_total"),
	reaugAttempts:      obs.Default().Counter("serve_reaug_attempts_total"),
	reaugRestored:      obs.Default().Counter("serve_reaug_restored_total"),
	reaugDegradedTotal: obs.Default().Counter("serve_reaug_degraded_total"),
	reaugLost:          obs.Default().Counter("serve_reaug_lost_total"),
	degradedAnswers:    obs.Default().Counter("serve_degraded_answers_total"),
	scarcity:           obs.Default().Gauge("serve_scarcity_fraction"),
	scarceMode:         obs.Default().Gauge("serve_scarce_mode"),
	shedTotal:          obs.Default().Counter("serve_shed_total"),
	quotaDenials:       obs.Default().Counter("serve_quota_denials_total"),
	stageAdmit:         obs.Default().SpanHandle("serve_admit"),
	stageSolve:         obs.Default().SpanHandle("serve_solve"),
	stageCommit:        obs.Default().SpanHandle("serve_commit"),
	stageExec:          obs.Default().SpanHandle("serve_exec"),
	stageGate:          obs.Default().SpanHandle("serve_gate_wait"),
	stageFsync:         obs.Default().SpanHandle("serve_wal_fsync"),
}

// endpointInstruments caches the per-endpoint request counter and latency
// histogram (serve_requests_total / serve_request_duration_seconds).
type endpointInstruments struct {
	total    *obs.Counter
	rejected map[string]*obs.Counter
	duration *obs.Histogram
}

func endpointInstrumentsFor(endpoint string) *endpointInstruments {
	r := obs.Default()
	return &endpointInstruments{
		total: r.Counter("serve_requests_total", "endpoint", endpoint),
		rejected: map[string]*obs.Counter{
			reasonFull:     r.Counter("serve_rejected_total", "endpoint", endpoint, "reason", reasonFull),
			reasonDraining: r.Counter("serve_rejected_total", "endpoint", endpoint, "reason", reasonDraining),
			reasonQuota:    r.Counter("serve_rejected_total", "endpoint", endpoint, "reason", reasonQuota),
		},
		duration: r.Histogram("serve_request_duration_seconds", obs.DurationBuckets, "endpoint", endpoint),
	}
}

// Rejection reasons for serve_rejected_total.
const (
	reasonFull     = "queue_full"
	reasonDraining = "draining"
	reasonQuota    = "quota"
)

// tenantInstruments caches one tenant's serve_tenant_* instruments, resolved
// once at service construction so the hot path pays no registry lookups.
type tenantInstruments struct {
	admitted      *obs.Counter // requests admitted and committed for this tenant
	rejectedQuota *obs.Counter // submissions denied by the tenant's token bucket
	rejectedQueue *obs.Counter // submissions denied on queue bounds (global or fair-share)
	shed          *obs.Counter // requests shed by knapsack admission under scarcity
	infeasible    *obs.Counter // requests answered 422/504 (no feasible augmentation)
	depth         *obs.Gauge   // requests currently queued for this tenant
	logGain       *obs.Gauge   // cumulative tenant-weighted reliability log-gain
}

func tenantInstrumentsFor(name string) tenantInstruments {
	r := obs.Default()
	return tenantInstruments{
		admitted:      r.Counter("serve_tenant_admitted_total", "tenant", name),
		rejectedQuota: r.Counter("serve_tenant_rejected_total", "tenant", name, "reason", reasonQuota),
		rejectedQueue: r.Counter("serve_tenant_rejected_total", "tenant", name, "reason", reasonFull),
		shed:          r.Counter("serve_tenant_shed_total", "tenant", name),
		infeasible:    r.Counter("serve_tenant_infeasible_total", "tenant", name),
		depth:         r.Gauge("serve_tenant_queue_depth", "tenant", name),
		logGain:       r.Gauge("serve_tenant_weighted_log_gain", "tenant", name),
	}
}
