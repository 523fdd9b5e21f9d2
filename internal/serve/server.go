package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mec"
	"repro/internal/obs/trace"
	"repro/internal/serve/wal"
	"repro/internal/serve/watchdog"
)

// Admission policies for requests that arrive without primaries.
const (
	// AdmitRandom places each primary on a uniformly random cloudlet with
	// residual headroom (the paper's §7.1 evaluation policy), seeded per
	// request sequence number.
	AdmitRandom = "random"
	// AdmitMaxReliability places primaries via the layered-DAG
	// maximum-reliability construction of Section 4.1. Deterministic, so
	// identical requests get identical primaries.
	AdmitMaxReliability = "maxrel"
)

// Options configures a Service. The zero value is usable: every field has a
// serving-ready default (see New).
type Options struct {
	// QueueDepth bounds the admission queue; a full queue answers 429 with
	// Retry-After. Default 64.
	QueueDepth int
	// BatchSize is the micro-batch bound B: a batch is dispatched as soon as
	// it holds B requests or the queue runs empty, whichever comes first.
	// Default 8.
	BatchSize int
	// BatchWait bounds how long open producer waves (BeginWave) may hold the
	// batcher, counted from the first one's opening: past it the batcher
	// logs a warning and serves what is queued, so a stalled or leaked wave
	// cannot wedge the service. It delays nothing else — no request waits on a
	// clock. Default 1s, far above the time a producer needs to submit a wave.
	BatchWait time.Duration
	// Workers is the trial-engine worker count used to solve a batch in
	// parallel. <= 0 means GOMAXPROCS. Placements are bit-identical for any
	// value (the engine's determinism guarantee).
	Workers int
	// Solver serves augmentations; nil selects the registered Failsafe chain
	// (Heuristic → Greedy).
	Solver core.Solver
	// HopBound is the paper's l: secondaries sit within HopBound hops of
	// their primary. Default 1.
	HopBound int
	// AdmitPolicy places primaries for requests that omit them:
	// AdmitRandom (default) or AdmitMaxReliability.
	AdmitPolicy string
	// Seed is the base of every per-request RNG seed derivation. Default 1.
	Seed int64
	// Batchers bounds how many micro-batches may be between collection and
	// answer. Batches always execute one at a time, in collection order, and
	// the value never decides which requests share a batch within a declared
	// wave, so placements are bit-identical for any value; above 1, the WAL
	// flush and answer delivery of batch k overlap the execution of batch
	// k+1. Default 1.
	Batchers int
	// WALDir, when set, arms the write-ahead log: every installed epoch is
	// appended (and periodically checkpointed) under this directory, and the
	// service boots from whatever the directory already holds — the last
	// durable epoch, residual ledger, placement records, health sets and tenant
	// quotas of the process that wrote it, or the fresh network when it is
	// empty. One directory is therefore one history; it must have been
	// written against the same network. Empty disables durability.
	WALDir string
	// WALSync selects the WAL fsync policy: "always" (default; survives
	// machine crashes) or "none" (page-cache durability only — survives
	// process kills).
	WALSync string
	// SnapshotEvery is the WAL checkpoint cadence in entries: a full-state
	// snapshot subsumes and truncates the log. Default 256.
	SnapshotEvery int
	// TraceDepth sizes the flight recorder: the last TraceDepth completed
	// request traces are kept in memory and served at /debug/traces. 0 means
	// the default 256; negative disables request tracing entirely (no trace
	// allocation, no X-Trace-Id).
	TraceDepth int
	// RecordPath, when set, appends every admitted augmentation and release
	// to a CRC-framed request-trace file replayable with `augmentd -replay`.
	// The recorded order is faithful only under a single admission producer
	// (the loadgen path); concurrent HTTP admissions may interleave.
	RecordPath string
	// AlertWarnFactor raises a session WARN when u < ρ·AlertWarnFactor (the
	// session is close to its SLO). Default 1.05.
	AlertWarnFactor float64
	// AlertCritFactor raises a session CRIT when u < ρ·AlertCritFactor — with
	// the default 1.0, CRIT means the SLO is violated outright.
	AlertCritFactor float64
	// ProbeEvery, when positive, runs the watchdog probe loop at this
	// interval: session alerts are refreshed and one re-augmentation round
	// runs per tick. Zero leaves the cadence to the caller (loadgen chaos
	// drives rounds synchronously; cmd/augmentd starts the loop in server
	// mode).
	ProbeEvery time.Duration

	// Tenants declares the multi-tenant admission principals (weight, and
	// optionally a token-bucket quota per tenant). The default tenant is
	// always present (weight 1 unless declared); requests with an empty or
	// unknown tenant resolve to it. Empty means single-tenant behavior.
	Tenants []admission.Tenant
	// Admission selects the queue discipline: AdmissionFIFO (default; global
	// arrival order), AdmissionFair (deficit round-robin over per-tenant
	// sub-queues, weight-proportional), or AdmissionKnapsack (fair queueing
	// plus scarcity-mode knapsack batch admission).
	Admission string
	// ScarcityWatermark is the residual-capacity fraction below which the
	// knapsack discipline switches from FIFO draining to knapsack admission.
	// Default 0.25. Only meaningful with AdmissionKnapsack.
	ScarcityWatermark float64
}

// degradedFactor is the share of its free capacity a degraded cloudlet still
// offers to new placements (existing instances survive).
const degradedFactor = 0.5

// reaugBudget bounds re-augmentation attempts per failed session before it
// is declared lost (sticky CRIT alert). The chaos drill's drain rounds and
// the DES's recovery accounting assume this value.
const reaugBudget = 3

// knapsackWindowBatches is the dispatch window under AdmissionKnapsack, in
// batches: the batcher collects up to knapsackWindowBatches×BatchSize
// requests so the scarcity-mode knapsack has a candidate set to select from.
const knapsackWindowBatches = 4

// withDefaults fills unset options.
func (o Options) withDefaults() (Options, error) {
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.QueueDepth < 0 {
		return o, fmt.Errorf("serve: queue depth %d must be positive", o.QueueDepth)
	}
	if o.BatchSize == 0 {
		o.BatchSize = 8
	}
	if o.BatchSize < 0 {
		return o, fmt.Errorf("serve: batch size %d must be positive", o.BatchSize)
	}
	if o.BatchWait == 0 {
		o.BatchWait = time.Second
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Solver == nil {
		sv, ok := core.Get("Failsafe")
		if !ok {
			return o, fmt.Errorf("serve: no Failsafe solver registered and Options.Solver unset")
		}
		o.Solver = sv
	}
	if o.HopBound == 0 {
		o.HopBound = 1
	}
	if o.HopBound < 1 {
		return o, fmt.Errorf("serve: hop bound %d must be >= 1", o.HopBound)
	}
	switch o.AdmitPolicy {
	case "":
		o.AdmitPolicy = AdmitRandom
	case AdmitRandom, AdmitMaxReliability:
	default:
		return o, fmt.Errorf("serve: unknown admit policy %q (want %s or %s)", o.AdmitPolicy, AdmitRandom, AdmitMaxReliability)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Batchers == 0 {
		o.Batchers = 1
	}
	if o.Batchers < 0 {
		return o, fmt.Errorf("serve: batcher count %d must be positive", o.Batchers)
	}
	if _, err := wal.ParseSyncPolicy(o.WALSync); err != nil {
		return o, err
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	if o.SnapshotEvery < 0 {
		return o, fmt.Errorf("serve: snapshot cadence %d must be positive", o.SnapshotEvery)
	}
	if o.TraceDepth == 0 {
		o.TraceDepth = 256
	}
	if o.TraceDepth < 0 {
		o.TraceDepth = 0 // explicit disable
	}
	switch o.Admission {
	case "":
		o.Admission = AdmissionFIFO
	case AdmissionFIFO, AdmissionFair, AdmissionKnapsack:
	default:
		return o, fmt.Errorf("serve: unknown admission discipline %q (want %s, %s, or %s)",
			o.Admission, AdmissionFIFO, AdmissionFair, AdmissionKnapsack)
	}
	if o.ScarcityWatermark == 0 {
		o.ScarcityWatermark = 0.25
	}
	if o.ScarcityWatermark < 0 || o.ScarcityWatermark > 1 {
		return o, fmt.Errorf("serve: scarcity watermark %v out of [0,1]", o.ScarcityWatermark)
	}
	for _, t := range o.Tenants {
		if err := t.Validate(); err != nil {
			return o, err
		}
	}
	return o, nil
}

// Service is the online augmentation server: state + queue + the HTTP
// handlers. Construct with New, mount Handler on an http.Server, and
// call Drain on shutdown.
type Service struct {
	opt     Options
	state   *State
	queue   *queue
	nextSeq atomic.Int64

	// flight keeps the last TraceDepth completed request traces (nil when
	// tracing is disabled); recorder appends the request stream for replay
	// (nil when Options.RecordPath is empty).
	flight   *trace.Recorder
	recorder *TraceWriter

	// alerter is the stateful watchdog (always non-nil); reaug queues the
	// sessions node failures dropped below their expectation; the probe
	// fields manage the optional background audit/re-augmentation loop.
	alerter   *watchdog.Alerter
	reaug     reaugQueue
	probeStop chan struct{}
	probeDone chan struct{}

	augmentIns *endpointInstruments
	releaseIns *endpointInstruments
	stateIns   *endpointInstruments

	// Multi-tenant admission economics: per-tenant runtime state (name →
	// state, plus the same states in sorted name order), the network's total
	// cloudlet capacity (the scarcity denominator), and whether the last
	// knapsack check ran in scarcity mode.
	tenants     map[string]*tenantState
	tenantOrder []*tenantState
	totalCap    float64
	scarce      atomic.Bool
}

// New builds a Service over net. The service owns net's residual ledger from
// this point on: the ledger as of this call becomes epoch 0 (or, when
// Options.WALDir holds a log, that log's last durable epoch), and every later
// version lives in immutable copy-on-write epochs — net itself is never
// mutated.
func New(net *mec.Network, opt Options) (*Service, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	state := NewState(net)
	if opt.WALDir != "" {
		// Appending to a log the ledger did not start from would mix two
		// histories, so a WAL directory is always replayed first; an empty one
		// replays to the fresh state.
		if state, err = NewStateFromWAL(net, opt.WALDir); err != nil {
			return nil, err
		}
		policy, _ := wal.ParseSyncPolicy(opt.WALSync) // validated in withDefaults
		l, err := wal.Open(opt.WALDir, policy)
		if err != nil {
			return nil, err
		}
		state.attachWAL(l, uint64(opt.SnapshotEvery))
	}
	s := &Service{
		opt:        opt,
		state:      state,
		augmentIns: endpointInstrumentsFor("augment", ReasonQueueFull, ReasonDraining, ReasonQuota),
		releaseIns: endpointInstrumentsFor("release"),
		stateIns:   endpointInstrumentsFor("state"),
		alerter: watchdog.New(watchdog.Config{
			WarnFactor: opt.AlertWarnFactor,
			CritFactor: opt.AlertCritFactor,
		}),
	}
	s.buildTenants()
	// Rebuild quota buckets from the journaled tenant state (none on a fresh
	// state) so a restarted process continues refusing exactly where the
	// crashed one would have.
	s.seedTenantQuotas(state.TenantQuotas())
	if state.wal != nil {
		// Journal quota state with each install only when some tenant actually
		// carries a bucket — the common single-tenant WAL stays lean.
		for _, ts := range s.tenantOrder {
			if ts.bucket != nil {
				state.tenantSnap = s.tenantQuotas
				break
			}
		}
	}
	if opt.TraceDepth > 0 {
		s.flight = trace.NewRecorder(opt.TraceDepth)
	}
	if opt.RecordPath != "" {
		s.recorder, err = OpenTraceWriter(opt.RecordPath, TraceOp{
			Seed:        opt.Seed,
			Solver:      opt.Solver.Name(),
			HopBound:    opt.HopBound,
			AdmitPolicy: opt.AdmitPolicy,
			Admission:   opt.Admission,
			Tenants:     FormatTenants(s.tenantSpecs()),
		})
		if err != nil {
			return nil, err
		}
	}
	// Replayed placements keep their IDs; new admissions continue above every
	// ID the log ever issued, released ones included.
	s.nextSeq.Store(int64(state.MaxPlacedID()))
	s.queue = newQueue(s, opt.QueueDepth, opt.Batchers)
	// The journal carries health transitions and failure-rewritten records,
	// so a restarted process resumes alerting and re-augmentation exactly
	// where the crashed one stopped (a no-op on a fresh state).
	s.seedFromRestore()
	if opt.ProbeEvery > 0 {
		s.startProbe(opt.ProbeEvery)
	}
	return s, nil
}

// traceID derives a request's trace ID from its admission sequence: a
// splitmix64 finalizer over the service seed and the sequence, so the same
// request gets the same X-Trace-Id on a recorded run and its replay.
func (s *Service) traceID(seq int) uint64 {
	z := uint64(s.opt.Seed)*0x9e3779b97f4a7c15 + uint64(seq)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// FlightRecorder exposes the service's flight recorder (nil when tracing is
// disabled) — test and tooling access to the /debug/traces data.
func (s *Service) FlightRecorder() *trace.Recorder { return s.flight }

// AdvanceSeq raises the admission sequence counter so the next Enqueue
// assigns at least n+1 — the replay driver's tool for reproducing sequence
// gaps (rejected submissions consumed a sequence number on the recorded run
// without leaving a trace op). A no-op when the counter is already past n.
func (s *Service) AdvanceSeq(n int) {
	for {
		cur := s.nextSeq.Load()
		if int64(n) <= cur || s.nextSeq.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Close drains the admission path, finalizes the request-trace recording
// (EOF trailer with the final state hash), and releases the WAL file handle.
// Call it instead of Drain when the service was built with a WALDir or a
// RecordPath.
func (s *Service) Close() error {
	s.stopProbe()
	s.Drain()
	var firstErr error
	if s.recorder != nil {
		e := s.state.pin()
		firstErr = s.recorder.CloseWith(TraceOp{
			Hash:   fmt.Sprintf("%016x", e.hash()),
			Placed: len(e.recs),
			Epoch:  e.seq,
		})
		s.recorder = nil
	}
	if s.state.wal != nil {
		if err := s.state.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// State exposes the service's live network state (read-mostly accessors).
func (s *Service) State() *State { return s.state }

// NumAPs returns the AP count of the served network (for request generators).
func (s *Service) NumAPs() int { return s.state.base.G.N() }

// Cloudlets returns the IDs of the served network's cloudlets (APs with
// compute capacity) — the chaos fault injector's target set.
func (s *Service) Cloudlets() []int { return s.state.base.Cloudlets() }

// CatalogSize returns |ℱ| of the served network's function catalog.
func (s *Service) CatalogSize() int { return s.state.base.Catalog().Size() }

// SolverName returns the name of the solver serving augmentations.
func (s *Service) SolverName() string { return s.opt.Solver.Name() }

// Draining reports whether Drain has started.
func (s *Service) Draining() bool { return s.queue.draining.Load() }

// Drain gracefully shuts the admission path down: new submissions are
// refused with 503, every queued request is still solved and answered, and
// Drain returns once the queue is empty. The HTTP handlers stay mounted so
// in-flight responses and /v1/state keep working; tear the http.Server down
// after Drain returns.
func (s *Service) Drain() { s.queue.Drain() }

// AugmentRequest is the JSON body of POST /v1/augment.
type AugmentRequest struct {
	// SFC is the ordered service function chain, as catalog type IDs.
	SFC []int `json:"sfc"`
	// Expectation is the reliability expectation ρ in (0,1].
	Expectation float64 `json:"expectation"`
	// Source and Destination are the request's traffic endpoints (AP IDs).
	Source      int `json:"source"`
	Destination int `json:"destination"`
	// Primaries optionally pins the primary cloudlet per chain position;
	// omitted means the server places them per its admission policy.
	Primaries []int `json:"primaries,omitempty"`
	// DeadlineMS optionally bounds this request's solve wall-clock in
	// milliseconds, counted from the moment its solve starts; past it the
	// request alone answers 504. 0 means no deadline; at most maxDeadlineMS.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Tenant names the admission-economics principal this request bills to.
	// Empty or unknown tenants resolve to the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// AugmentResponse is the JSON body answered by POST /v1/augment on success.
type AugmentResponse struct {
	ID                 int     `json:"id"`
	Primaries          []int   `json:"primaries"`
	Secondaries        [][]int `json:"secondaries"`
	BackupCounts       []int   `json:"backup_counts"`
	InitialReliability float64 `json:"initial_reliability"`
	Reliability        float64 `json:"reliability"`
	MetExpectation     bool    `json:"met_expectation"`
	Algorithm          string  `json:"algorithm"`
	ServedBy           string  `json:"served_by,omitempty"`
	QueueWaitMS        float64 `json:"queue_wait_ms"`
	SolveMS            float64 `json:"solve_ms"`
	// Trace is the request's span timeline, echoed when the client asked
	// with ?trace=1 (and tracing is enabled).
	Trace *trace.Snapshot `json:"trace,omitempty"`
}

// ReleaseRequest is the JSON body of POST /v1/release.
type ReleaseRequest struct {
	ID int `json:"id"`
}

// ReleaseResponse is the JSON body answered by POST /v1/release on success.
type ReleaseResponse struct {
	ID       int     `json:"id"`
	FreedMHz float64 `json:"freed_mhz"`
}

// StateResponse is the JSON body of GET /v1/state.
type StateResponse struct {
	Cloudlets  []CloudletState `json:"cloudlets"`
	Placed     int             `json:"placed_requests"`
	Epoch      uint64          `json:"epoch"`
	StateHash  string          `json:"state_hash"`
	QueueDepth int             `json:"queue_depth"`
	Draining   bool            `json:"draining"`
	// Batchers is the configured bound on batches between collection and
	// answer.
	Batchers int `json:"batchers"`
	// WALDir is the write-ahead-log directory; empty when durability is off.
	WALDir string `json:"wal_dir,omitempty"`
	// WALEntries and WALSnapshots count WAL appends and checkpoints written
	// by this process (absent when durability is off).
	WALEntries   uint64 `json:"wal_entries,omitempty"`
	WALSnapshots uint64 `json:"wal_snapshots,omitempty"`
	// DownNodes and DegradedNodes list cloudlets currently marked down or
	// degraded (absent when every node is healthy).
	DownNodes     []int `json:"down_nodes,omitempty"`
	DegradedNodes []int `json:"degraded_nodes,omitempty"`
	// ReaugPending counts sessions queued for proactive re-augmentation.
	ReaugPending int `json:"reaug_pending,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service mux:
//
//	POST /v1/augment
//	POST /v1/release
//	POST /v1/node
//	GET  /v1/alerts
//	GET  /v1/tenants
//	GET  /v1/state
//	GET  /v1/healthz
//	GET  /debug/traces   (when tracing is enabled)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/augment", s.handleAugment)
	mux.HandleFunc("/v1/release", s.handleRelease)
	mux.HandleFunc("/v1/node", s.handleNode)
	mux.HandleFunc("/v1/alerts", s.handleAlerts)
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	mux.HandleFunc("/v1/state", s.handleState)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	if s.flight != nil {
		mux.Handle("/debug/traces", s.flight.Handler())
	}
	return mux
}

// Bounds on outside input. A POST body over maxBodyBytes or a chain over
// maxChainLen positions (the paper's sweep ends at 20) answers 400 like any
// other malformed request, before the daemon buffers or builds anything
// proportional to it.
const (
	maxBodyBytes = 1 << 20
	maxChainLen  = 64
)

// maxDeadlineMS is the largest deadline_ms whose conversion to a
// time.Duration does not overflow (about 292 years); anything above it
// answers 400 instead of wrapping to a tiny or negative deadline.
const maxDeadlineMS = int64(math.MaxInt64 / time.Millisecond)

// decodeBody decodes a POST body of at most maxBodyBytes into v, rejecting
// unknown fields and anything but whitespace after the one JSON value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var rest struct{}
	if dec.Decode(&rest) != io.EOF {
		return errors.New("body has data after its JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeRefusal answers an augmentation that ended for reason why: its status,
// Retry-After on a 429 (quota, queue bounds and knapsack sheds are
// transient), and msg as the error body.
func writeRefusal(w http.ResponseWriter, why Reason, msg string) {
	if why.Status() == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, why.Status(), "%s", msg)
}

// validate checks an augment request against the network before any mec
// constructor can panic on it.
func (s *Service) validate(ar *AugmentRequest) error {
	if len(ar.SFC) == 0 {
		return fmt.Errorf("sfc must be non-empty")
	}
	if len(ar.SFC) > maxChainLen {
		return fmt.Errorf("sfc has %d functions, at most %d allowed", len(ar.SFC), maxChainLen)
	}
	catSize := s.state.base.Catalog().Size()
	for _, f := range ar.SFC {
		if f < 0 || f >= catSize {
			return fmt.Errorf("sfc function %d outside catalog [0,%d)", f, catSize)
		}
	}
	if ar.Expectation <= 0 || ar.Expectation > 1 {
		return fmt.Errorf("expectation %v out of (0,1]", ar.Expectation)
	}
	n := s.state.base.G.N()
	if ar.Source < 0 || ar.Source >= n || ar.Destination < 0 || ar.Destination >= n {
		return fmt.Errorf("source/destination outside the %d-node graph", n)
	}
	if len(ar.Primaries) > 0 {
		if len(ar.Primaries) != len(ar.SFC) {
			return fmt.Errorf("%d primaries for %d functions", len(ar.Primaries), len(ar.SFC))
		}
		for i, v := range ar.Primaries {
			if v < 0 || v >= n || s.state.base.Capacity[v] <= 0 {
				return fmt.Errorf("primary %d of position %d is not a cloudlet", v, i)
			}
		}
	}
	if ar.DeadlineMS < 0 || int64(ar.DeadlineMS) > maxDeadlineMS {
		return fmt.Errorf("deadline_ms %d out of [0,%d]", ar.DeadlineMS, maxDeadlineMS)
	}
	return nil
}

// Ticket is an in-flight admission returned by Enqueue. Exactly one Wait
// call receives the outcome.
type Ticket struct {
	p *pending
}

// Outcome is the final answer for one enqueued augmentation.
type Outcome struct {
	// Reason is how the request ended: ReasonPlaced, ReasonInfeasible,
	// ReasonDeadline or ReasonShed (the other reasons refuse the submission
	// itself, see Rejection).
	Reason Reason
	// Status is the HTTP status code the request resolves to, Reason.Status().
	Status int
	// Err is the failure detail when Status is not 200.
	Err string
	// Response is set when Status is 200.
	Response *AugmentResponse
	// Trace is the request's completed span timeline (nil with tracing
	// disabled). Present for every delivered outcome, success or failure.
	Trace *trace.Snapshot
}

// Wait blocks until the batcher has answered this ticket's request.
func (t *Ticket) Wait() Outcome {
	out := <-t.p.done
	if out.reason != ReasonPlaced {
		return Outcome{Reason: out.reason, Status: out.reason.Status(), Err: out.errText, Trace: out.trace}
	}
	rec := out.placed
	counts := make([]int, len(rec.Secondaries))
	for i, sec := range rec.Secondaries {
		counts[i] = len(sec)
	}
	return Outcome{Status: http.StatusOK, Trace: out.trace, Response: &AugmentResponse{
		ID:                 rec.ID,
		Primaries:          rec.Primaries,
		Secondaries:        rec.Secondaries,
		BackupCounts:       counts,
		InitialReliability: out.initial,
		Reliability:        rec.Reliability,
		MetExpectation:     rec.Met,
		Algorithm:          rec.Algorithm,
		ServedBy:           rec.ServedBy,
		QueueWaitMS:        out.queueWait.Seconds() * 1000,
		SolveMS:            out.solveTime.Seconds() * 1000,
	}}
}

// Enqueue validates ar, assigns it the next admission sequence number, and
// submits it to the bounded queue without waiting for the solve. It returns
// a *Rejection on backpressure, a validation error otherwise.
// Callers that need deterministic placements must call Enqueue from a single
// goroutine (sequence numbers seed the per-request RNGs) and, when they
// submit more than one request before waiting, inside a BeginWave bracket
// (which requests share a batch is a solve input): the HTTP handler
// guarantees neither cross-connection admission order nor batch
// composition, the in-process load generator both.
func (s *Service) Enqueue(ar AugmentRequest) (*Ticket, error) {
	return s.enqueue(ar, false)
}

// BeginWave declares that the caller is about to Enqueue several requests
// before waiting on any of them, and returns the function that ends the
// wave; call it exactly once, after the last Enqueue and before the first
// Wait:
//
//	end := svc.BeginWave()
//	for _, ar := range wave {
//		t, err := svc.Enqueue(ar)
//		...
//	}
//	end()
//
// The batcher pops nothing while a wave is open, so it sees the wave all
// at once: how the wave is cut into batches, the fair-queueing pop order and
// any queue-bound rejection are then functions of the wave's content, not of
// how fast the producer ran — which is what makes a recorded run replay
// bit-identically at any worker × batcher count. A caller that Enqueues one
// request and Waits needs no bracket. A wave held open longer than
// Options.BatchWait is abandoned with a warning: its requests are served as
// they come and its end function becomes a no-op.
func (s *Service) BeginWave() (end func()) { return s.queue.beginWave() }

// enqueue is Enqueue with control over the recorded Sync flag: sync marks
// submissions the producer waits on before submitting anything else (the
// re-augmentation loop), so a trace replay can reproduce the exact
// enqueue/wait interleaving — micro-batch composition is an admission-order
// input to every solve (phase 1 charges the whole batch's primaries before
// any secondaries are placed).
func (s *Service) enqueue(ar AugmentRequest, sync bool) (*Ticket, error) {
	if err := s.validate(&ar); err != nil {
		return nil, err
	}
	p := &pending{
		seq:         int(s.nextSeq.Add(1)),
		tenant:      s.resolveTenant(ar.Tenant),
		sfc:         append([]int(nil), ar.SFC...),
		expectation: ar.Expectation,
		source:      ar.Source,
		destination: ar.Destination,
		primaries:   append([]int(nil), ar.Primaries...),
		deadline:    time.Duration(ar.DeadlineMS) * time.Millisecond,
		enqueued:    time.Now(),
		done:        make(chan outcome, 1),
	}
	if s.flight != nil {
		// The trace is built here and handed off with the pending through the
		// queue channel — single-owner at every point, so no span takes a lock.
		p.tr = trace.New(s.traceID(p.seq), p.seq, "request", p.enqueued)
		p.queueSpan = p.tr.StartSpanAt("queue", trace.Root, p.enqueued)
	}
	if err := s.queue.Submit(p); err != nil {
		return nil, err
	}
	if s.recorder != nil {
		// The default tenant is recorded as absence: a replayed empty tenant
		// resolves to it anyway, and tenantless recordings keep the exact
		// placement log they had before multi-tenancy existed.
		tenant := p.tenant
		if tenant == admission.DefaultTenant {
			tenant = ""
		}
		s.recorder.Record(TraceOp{
			Op:          OpAugment,
			Seq:         p.seq,
			SFC:         p.sfc,
			Expectation: p.expectation,
			Source:      p.source,
			Destination: p.destination,
			Primaries:   p.primaries,
			DeadlineMS:  ar.DeadlineMS,
			Tenant:      tenant,
			Sync:        sync,
		})
	}
	return &Ticket{p: p}, nil
}

// Release tears down a live placement: capacity returns to the ledger and
// the release is recorded for replay. Returns the freed MHz.
func (s *Service) Release(id int) (float64, error) {
	freed, err := s.state.Release(id)
	if err != nil {
		return 0, err
	}
	metrics.released.Inc()
	// A released session has no SLO to violate: clear its alert and any
	// queued re-augmentation.
	s.alerter.Resolve(watchdog.Key{Kind: watchdog.KindSession, ID: id}, "released")
	s.reaug.remove(id)
	if s.recorder != nil {
		s.recorder.Record(TraceOp{Op: OpRelease, ID: id})
	}
	return freed, nil
}

func (s *Service) handleAugment(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.augmentIns.total.Inc()
	defer func() { s.augmentIns.duration.ObserveSince(start) }()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var ar AugmentRequest
	if err := decodeBody(w, r, &ar); err != nil {
		writeError(w, http.StatusBadRequest, "bad augment request: %v", err)
		return
	}
	t, err := s.Enqueue(ar)
	var refused *Rejection
	switch {
	case errors.As(err, &refused):
		s.augmentIns.rejected[refused.Reason].Inc()
		writeRefusal(w, refused.Reason, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad augment request: %v", err)
		return
	}
	out := t.Wait()
	if out.Trace != nil {
		w.Header().Set("X-Trace-Id", out.Trace.TraceID)
	}
	if out.Reason != ReasonPlaced {
		writeRefusal(w, out.Reason, out.Err)
		return
	}
	if out.Trace != nil && r.URL.Query().Get("trace") == "1" {
		out.Response.Trace = out.Trace
	}
	writeJSON(w, http.StatusOK, out.Response)
}

func (s *Service) handleRelease(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.releaseIns.total.Inc()
	defer func() { s.releaseIns.duration.ObserveSince(start) }()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var rr ReleaseRequest
	if err := decodeBody(w, r, &rr); err != nil {
		writeError(w, http.StatusBadRequest, "bad release request: %v", err)
		return
	}
	freed, err := s.Release(rr.ID)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ReleaseResponse{ID: rr.ID, FreedMHz: freed})
}

func (s *Service) handleState(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.stateIns.total.Inc()
	defer func() { s.stateIns.duration.ObserveSince(start) }()
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// One pinned epoch answers every field that describes the state.
	e := s.state.pin()
	resp := StateResponse{
		Cloudlets:     s.state.cloudletRows(e),
		Placed:        len(e.recs),
		Epoch:         e.seq,
		StateHash:     fmt.Sprintf("%016x", e.hash()),
		DownNodes:     e.down,
		DegradedNodes: e.degraded,
		QueueDepth:    s.queue.Len(),
		Draining:      s.Draining(),
		Batchers:      s.opt.Batchers,
	}
	if l := s.state.wal; l != nil {
		resp.WALDir = l.Dir()
		resp.WALEntries = l.Entries()
		resp.WALSnapshots = l.Snapshots()
	}
	resp.ReaugPending = s.reaug.pending()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
