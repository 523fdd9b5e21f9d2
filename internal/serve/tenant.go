package serve

import (
	"fmt"
	"math"
	"net/http"
	"sync"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/serve/wal"
)

// Admission queue disciplines (Options.Admission).
const (
	// AdmissionFIFO serves requests in global arrival order — the
	// single-tenant pre-economics behavior (default).
	AdmissionFIFO = "fifo"
	// AdmissionFair runs deficit round-robin over per-tenant sub-queues with
	// quantum proportional to tenant weight, and bounds each sub-queue to its
	// fair share of the queue depth.
	AdmissionFair = "fair"
	// AdmissionKnapsack is AdmissionFair plus scarcity-mode batch admission:
	// when the pinned epoch's residual fraction falls below the watermark,
	// the micro-batcher collects a wider window and admits the subset
	// maximizing Σ tenant-weight × log-gain, subject to packing feasibility
	// (core.SelectAdmission over the BMCGAP oracle). Unselected requests are
	// shed with 429.
	AdmissionKnapsack = "knapsack"
)

// knapsackGainFloor is the minimum per-request log-gain credited during
// knapsack admission, so requests whose initial reliability already meets ρ
// (log-gain 0) still carry weight-proportional value instead of vanishing
// from the objective.
const knapsackGainFloor = 1e-6

// tenantState is one tenant's runtime state: its spec, its token bucket
// (nil when the tenant has no quota; guarded by the queue mutex), and its
// served-traffic accounting (guarded by mu).
type tenantState struct {
	spec   admission.Tenant
	bucket *admission.Bucket

	mu      sync.Mutex
	counts  [numReasons]int64 // decided requests by reason (draining is not counted)
	logGain float64           // Σ weight × log(u/u0) over admitted requests

	ins tenantInstruments
}

// normalizeTenants copies the declared tenant set, appends the implicit
// default tenant when absent, and sorts by name — the canonical tenant order
// every tenant-indexed structure uses.
func normalizeTenants(ts []admission.Tenant) []admission.Tenant {
	specs := append([]admission.Tenant(nil), ts...)
	hasDefault := false
	for _, t := range specs {
		if t.Name == admission.DefaultTenant {
			hasDefault = true
		}
	}
	if !hasDefault {
		specs = append(specs, admission.Tenant{Name: admission.DefaultTenant, Weight: 1})
	}
	return admission.SortTenants(specs)
}

// NormalizedTenants renders the canonical tenant-spec string New records in a
// trace header for the given declarations — the replay driver's comparison
// key for verifying a trace is replayed under the recording's tenant set.
func NormalizedTenants(ts []admission.Tenant) string {
	return FormatTenants(normalizeTenants(ts))
}

// buildTenants normalizes the configured tenant set (sorted by name, with
// the implicit default tenant appended when absent) and materializes runtime
// state and instruments for each. Called once from New.
func (s *Service) buildTenants() {
	specs := normalizeTenants(s.opt.Tenants)
	s.tenants = make(map[string]*tenantState, len(specs))
	for _, t := range specs {
		ts := &tenantState{spec: t, ins: tenantInstrumentsFor(t.Name)}
		if t.Rate > 0 {
			ts.bucket = admission.NewBucket(t.Rate, t.Burst)
		}
		s.tenants[t.Name] = ts
		s.tenantOrder = append(s.tenantOrder, ts)
	}
	for _, v := range s.state.base.Cloudlets() {
		s.totalCap += s.state.base.Capacity[v]
	}
}

// tenantSpecs returns the normalized tenant specs in round-robin order.
func (s *Service) tenantSpecs() []admission.Tenant {
	specs := make([]admission.Tenant, len(s.tenantOrder))
	for i, ts := range s.tenantOrder {
		specs[i] = ts.spec
	}
	return specs
}

// resolveTenant maps a request's tenant ID to a configured tenant name;
// empty or unknown IDs resolve to the default tenant, so accounting and
// placement records always name a real principal.
func (s *Service) resolveTenant(name string) string {
	if _, ok := s.tenants[name]; ok {
		return name
	}
	return admission.DefaultTenant
}

// FormatTenants renders tenant specs back into the CLI/trace-header form
// accepted by admission.ParseTenants (the inverse, modulo defaults).
func FormatTenants(ts []admission.Tenant) string {
	out := ""
	for i, t := range ts {
		if i > 0 {
			out += ";"
		}
		out += fmt.Sprintf("%s:weight=%g", t.Name, t.Weight)
		if t.Rate > 0 {
			out += fmt.Sprintf(",rate=%g,burst=%g", t.Rate, t.Burst)
		}
	}
	return out
}

// tenantQuotas snapshots every quota-carrying tenant's bucket state for WAL
// journaling, in tenant order. Takes the queue mutex (buckets are guarded by
// it); called from installLocked, so the lock order is commitMu → queue.mu.
func (s *Service) tenantQuotas() []wal.TenantQuota {
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	var out []wal.TenantQuota
	for _, ts := range s.tenantOrder {
		if ts.bucket == nil {
			continue
		}
		out = append(out, wal.TenantQuota{
			Name:   ts.spec.Name,
			Tokens: ts.bucket.Tokens(),
			Tick:   ts.bucket.Tick(),
		})
	}
	return out
}

// seedTenantQuotas restores journaled bucket state after a WAL replay.
// Called from New before the queue starts accepting submissions.
func (s *Service) seedTenantQuotas(quotas []wal.TenantQuota) {
	for _, q := range quotas {
		if ts, ok := s.tenants[q.Name]; ok && ts.bucket != nil {
			ts.bucket.Seed(q.Tokens, q.Tick)
		}
	}
}

// knapsackShed is executeBatch's phase 0: under the knapsack discipline,
// measure the execution epoch's residual-capacity fraction and — below the
// scarcity watermark — solve the admission knapsack over the batch window.
// Returns nil when every request proceeds, else a per-index shed mask.
//
// The decision is a pure function of (epoch, batch): candidate values derive
// from catalog reliabilities and tenant weights, feasibility from the
// epoch's residual vector, and core.SelectAdmission is deterministic. Since
// batches execute in collection order against the live epoch, shed decisions
// are bit-identical at any worker × batcher count, exactly like placements.
func (s *Service) knapsackShed(e *epochLedger, batch []*pending) []bool {
	if s.opt.Admission != AdmissionKnapsack || len(batch) == 0 || s.totalCap <= 0 {
		return nil
	}
	cloudlets := s.state.base.Cloudlets()
	free := 0.0
	for _, v := range cloudlets {
		free += e.res[v]
	}
	frac := free / s.totalCap
	metrics.scarcity.Set(frac)
	if frac >= s.opt.ScarcityWatermark {
		s.scarce.Store(false)
		metrics.scarceMode.Set(0)
		return nil
	}
	s.scarce.Store(true)
	metrics.scarceMode.Set(1)

	cat := s.state.base.Catalog()
	cands := make([]core.AdmissionCandidate, len(batch))
	for i, p := range batch {
		demands := make([]float64, len(p.sfc))
		u0 := 1.0
		for j, f := range p.sfc {
			ft := cat.Type(f)
			demands[j] = ft.Demand
			u0 *= ft.Reliability
		}
		gain := knapsackGainFloor
		if u0 > 0 && p.expectation > u0 {
			if g := math.Log(p.expectation / u0); g > gain {
				gain = g
			}
		}
		cands[i] = core.AdmissionCandidate{
			Value:   s.tenants[p.tenant].spec.Weight * gain,
			Demands: demands,
		}
	}
	picked := core.SelectAdmission(e.res, cloudlets, cands, 0)
	shed := make([]bool, len(batch))
	for i := range shed {
		shed[i] = true
	}
	for _, i := range picked {
		shed[i] = false
	}
	return shed
}

// account counts one decided request of the tenant under its reason, in the
// service-wide counter, the tenant's counter and the tenant's statistics.
// Admissions credit the tenant-weighted reliability log-gain log(u/u₀) — the
// knapsack objective, measured on what was actually placed rather than
// estimated.
func (ts *tenantState) account(out *outcome) {
	if c := metrics.decided[out.reason]; c != nil {
		c.Inc()
	}
	if c := ts.ins.decided[out.reason]; c != nil {
		c.Inc()
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.counts[out.reason]++
	if rec := out.placed; rec != nil && out.initial > 0 && rec.Reliability > out.initial {
		ts.logGain += ts.spec.Weight * math.Log(rec.Reliability/out.initial)
		ts.ins.logGain.Set(ts.logGain)
	}
}

// TenantStatus is one tenant's row in GET /v1/tenants: its configuration,
// live quota and queue state, and served-traffic accounting.
type TenantStatus struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// Rate and Burst echo the quota configuration (absent without a quota);
	// Tokens is the bucket's live balance.
	Rate   float64  `json:"rate,omitempty"`
	Burst  float64  `json:"burst,omitempty"`
	Tokens *float64 `json:"tokens,omitempty"`
	// Queued and QueueCap are the tenant's sub-queue occupancy and bound.
	Queued   int `json:"queued"`
	QueueCap int `json:"queue_cap"`
	// Admitted counts committed placements; RejectedQuota and RejectedQueue
	// count 429s at submission (empty bucket vs full queue); Shed counts
	// knapsack-admission sheds; Infeasible counts 422/504 answers.
	Admitted      int64 `json:"admitted"`
	RejectedQuota int64 `json:"rejected_quota"`
	RejectedQueue int64 `json:"rejected_queue_full"`
	Shed          int64 `json:"shed"`
	Infeasible    int64 `json:"infeasible"`
	// WeightedLogGain is Σ weight × log(u/u₀) over admitted requests — the
	// admission-economics objective this tenant has accrued.
	WeightedLogGain float64 `json:"weighted_log_gain"`
}

// TenantsResponse is the JSON body of GET /v1/tenants.
type TenantsResponse struct {
	// Admission is the configured queue discipline (fifo, fair, knapsack).
	Admission string `json:"admission"`
	// ScarcityWatermark and Scarce report the knapsack trigger: the residual
	// fraction threshold and whether the last batch ran in scarcity mode.
	ScarcityWatermark float64 `json:"scarcity_watermark,omitempty"`
	Scarce            bool    `json:"scarce,omitempty"`
	// Tenants lists per-tenant state in name order.
	Tenants []TenantStatus `json:"tenants"`
}

// TenantStats returns the live per-tenant statistics served at /v1/tenants —
// the in-process view used by the dessim overload scenario.
func (s *Service) TenantStats() TenantsResponse {
	resp := TenantsResponse{
		Admission:         s.opt.Admission,
		ScarcityWatermark: s.opt.ScarcityWatermark,
		Scarce:            s.scarce.Load(),
	}
	for _, ts := range s.tenantOrder {
		row := TenantStatus{
			Name:   ts.spec.Name,
			Weight: ts.spec.Weight,
			Rate:   ts.spec.Rate,
			Burst:  ts.spec.Burst,
		}
		s.queue.mu.Lock()
		if ts.bucket != nil {
			tok := ts.bucket.Tokens()
			row.Tokens = &tok
		}
		row.Queued = s.queue.fq.TenantLen(ts.spec.Name)
		row.QueueCap = s.queue.fq.TenantCap(ts.spec.Name)
		s.queue.mu.Unlock()
		ts.mu.Lock()
		row.Admitted = ts.counts[ReasonPlaced]
		row.RejectedQuota = ts.counts[ReasonQuota]
		row.RejectedQueue = ts.counts[ReasonQueueFull]
		row.Shed = ts.counts[ReasonShed]
		row.Infeasible = ts.counts[ReasonInfeasible] + ts.counts[ReasonDeadline]
		row.WeightedLogGain = ts.logGain
		ts.mu.Unlock()
		resp.Tenants = append(resp.Tenants, row)
	}
	return resp
}

func (s *Service) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.TenantStats())
}
