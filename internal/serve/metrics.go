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
	conflicts     *obs.Counter   // commit conflicts that forced a serial re-solve
	released      *obs.Counter   // placements torn down via /v1/release
	epochSeq      *obs.Gauge     // current MVCC epoch sequence number
	epochAdvances *obs.Counter   // epochs installed (batch commits, releases, restores)
	walAppends    *obs.Counter   // WAL entries appended
	walSnapshots  *obs.Counter   // WAL snapshots (checkpoints) written
	walErrors     *obs.Counter   // WAL append/snapshot failures (service degrades to non-durable)
	walFsync      *obs.Histogram // latency of each performed WAL fsync (coalesced group commits count once)

	// Live failure handling (watchdog + re-augmentation). nodeTransitions
	// counts the cloudlet health transitions applied, by the state entered.
	nodeTransitions    map[string]*obs.Counter
	instancesDestroyed *obs.Counter // VNF instances destroyed by node failures
	reaugAttempts      *obs.Counter // re-augmentation attempts submitted
	reaugRestored      *obs.Counter // sessions fully restored to u >= ρ by re-augmentation
	reaugDegradedTotal *obs.Counter // sessions re-served in degraded mode (u < ρ, alerted)
	reaugLost          *obs.Counter // sessions abandoned after the re-augmentation budget
	degradedAnswers    *obs.Counter // fresh admissions answered with u < ρ (Met=false)

	// Multi-tenant admission economics.
	scarcity   *obs.Gauge // residual-capacity fraction observed at the last knapsack check
	scarceMode *obs.Gauge // 1 while knapsack admission is engaged, else 0

	// decided counts requests by the reason they were decided with
	// (tenantState.account); queue_full and draining have no service-wide
	// counter here (serve_rejected_total counts them per endpoint).
	decided [numReasons]*obs.Counter

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
	conflicts:          obs.Default().Counter("serve_commit_conflicts_total"),
	released:           obs.Default().Counter("serve_released_total"),
	epochSeq:           obs.Default().Gauge("serve_epoch"),
	epochAdvances:      obs.Default().Counter("serve_epoch_advances_total"),
	walAppends:         obs.Default().Counter("serve_wal_appends_total"),
	walSnapshots:       obs.Default().Counter("serve_wal_snapshots_total"),
	walErrors:          obs.Default().Counter("serve_wal_errors_total"),
	walFsync:           obs.Default().Histogram("serve_wal_fsync_seconds", obs.DurationBuckets),
	instancesDestroyed: obs.Default().Counter("serve_instances_destroyed_total"),
	reaugAttempts:      obs.Default().Counter("serve_reaug_attempts_total"),
	reaugRestored:      obs.Default().Counter("serve_reaug_restored_total"),
	reaugDegradedTotal: obs.Default().Counter("serve_reaug_degraded_total"),
	reaugLost:          obs.Default().Counter("serve_reaug_lost_total"),
	degradedAnswers:    obs.Default().Counter("serve_degraded_answers_total"),
	scarcity:           obs.Default().Gauge("serve_scarcity_fraction"),
	scarceMode:         obs.Default().Gauge("serve_scarce_mode"),
	stageAdmit:         obs.Default().SpanHandle("serve_admit"),
	stageSolve:         obs.Default().SpanHandle("serve_solve"),
	stageCommit:        obs.Default().SpanHandle("serve_commit"),
	stageExec:          obs.Default().SpanHandle("serve_exec"),
	stageGate:          obs.Default().SpanHandle("serve_gate_wait"),
	stageFsync:         obs.Default().SpanHandle("serve_wal_fsync"),
	decided: [numReasons]*obs.Counter{
		ReasonPlaced:     obs.Default().Counter("serve_admitted_total"),
		ReasonInfeasible: obs.Default().Counter("serve_infeasible_total"),
		ReasonDeadline:   obs.Default().Counter("serve_deadline_hits_total"),
		ReasonShed:       obs.Default().Counter("serve_shed_total"),
		ReasonQuota:      obs.Default().Counter("serve_quota_denials_total"),
	},
	nodeTransitions: map[string]*obs.Counter{
		HealthDown:     obs.Default().Counter("serve_node_transitions_total", "to", HealthDown),
		HealthUp:       obs.Default().Counter("serve_node_transitions_total", "to", HealthUp),
		HealthDegraded: obs.Default().Counter("serve_node_transitions_total", "to", HealthDegraded),
	},
}

// endpointInstruments caches the per-endpoint request counter, rejection
// counters and latency histogram (serve_requests_total,
// serve_rejected_total{reason} for the reasons the endpoint refuses a
// request with, serve_request_duration_seconds).
type endpointInstruments struct {
	total    *obs.Counter
	rejected [numReasons]*obs.Counter
	duration *obs.Histogram
}

// endpointInstrumentsFor registers an endpoint's instruments, with one
// rejection counter per reason in refusals: only an endpoint that refuses
// requests gets serve_rejected_total series, so none reads 0 forever.
func endpointInstrumentsFor(endpoint string, refusals ...Reason) *endpointInstruments {
	r := obs.Default()
	ins := &endpointInstruments{
		total:    r.Counter("serve_requests_total", "endpoint", endpoint),
		duration: r.Histogram("serve_request_duration_seconds", obs.DurationBuckets, "endpoint", endpoint),
	}
	for _, why := range refusals {
		ins.rejected[why] = r.Counter("serve_rejected_total", "endpoint", endpoint, "reason", why.String())
	}
	return ins
}

// tenantInstruments caches one tenant's serve_tenant_* instruments, resolved
// once at service construction so the hot path pays no registry lookups.
type tenantInstruments struct {
	// decided counts the tenant's requests by reason: admitted, rejected
	// (quota or queue bounds, global or fair-share), shed, and infeasible,
	// which counts deadlines too (every 422/504). Draining has none.
	decided [numReasons]*obs.Counter
	depth   *obs.Gauge // requests currently queued for this tenant
	logGain *obs.Gauge // cumulative tenant-weighted reliability log-gain
}

func tenantInstrumentsFor(name string) tenantInstruments {
	r := obs.Default()
	infeasible := r.Counter("serve_tenant_infeasible_total", "tenant", name)
	return tenantInstruments{
		decided: [numReasons]*obs.Counter{
			ReasonPlaced:     r.Counter("serve_tenant_admitted_total", "tenant", name),
			ReasonInfeasible: infeasible,
			ReasonDeadline:   infeasible,
			ReasonShed:       r.Counter("serve_tenant_shed_total", "tenant", name),
			ReasonQuota:      r.Counter("serve_tenant_rejected_total", "tenant", name, "reason", ReasonQuota.String()),
			ReasonQueueFull:  r.Counter("serve_tenant_rejected_total", "tenant", name, "reason", ReasonQueueFull.String()),
		},
		depth:   r.Gauge("serve_tenant_queue_depth", "tenant", name),
		logGain: r.Gauge("serve_tenant_weighted_log_gain", "tenant", name),
	}
}
