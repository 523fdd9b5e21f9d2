// Package loadgen is the deterministic in-process load generator for the
// augmentation service (internal/serve). It drives Service.Enqueue directly
// — no sockets, no HTTP client — from a single goroutine and declares each
// wave to the service (Service.BeginWave), so the admission sequence (and
// therefore every per-request RNG seed) and the composition of every batch
// are pure functions of the generator seed. Two runs with the same Config
// against identically seeded networks produce identical placement logs at any
// Service worker count; the determinism tests of this package pin exactly
// that.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/serve"
)

// Config shapes one generated request stream.
type Config struct {
	// Seed drives request generation (chains, endpoints, tenants).
	Seed int64
	// Requests is the total number of augmentations to submit.
	Requests int
	// WaveSize requests are submitted per wave; the generator waits for the
	// whole wave before submitting the next. Keep it at or below the
	// service's queue depth for a zero-drop run. Default 8.
	WaveSize int
	// ChainLenMin/Max bound the sampled SFC lengths. Defaults 3 and 6.
	ChainLenMin, ChainLenMax int
	// Expectation is ρ for every generated request. Default 0.95.
	Expectation float64
	// ReleaseEvery releases every k-th admitted placement between waves,
	// exercising /v1/release capacity restoration. 0 disables.
	ReleaseEvery int
	// Chaos configures deterministic fault injection: scheduled node health
	// transitions applied between waves, each followed by a watchdog audit
	// and re-augmentation round. See ChaosConfig.
	Chaos ChaosConfig
	// TenantMix assigns each generated request a tenant, drawn from these
	// shares with the generator RNG. Empty leaves requests tenantless (they
	// resolve to the service's default tenant), which keeps pre-tenant
	// request streams bit-identical.
	TenantMix []TenantShare
}

// TenantShare is one tenant's probability mass in a generated mix.
type TenantShare struct {
	Name  string
	Share float64
}

func (c Config) withDefaults() Config {
	if c.WaveSize <= 0 {
		c.WaveSize = 8
	}
	if c.ChainLenMin <= 0 {
		c.ChainLenMin = 3
	}
	if c.ChainLenMax < c.ChainLenMin {
		c.ChainLenMax = c.ChainLenMin + 3
	}
	if c.Expectation <= 0 || c.Expectation > 1 {
		c.Expectation = 0.95
	}
	return c
}

// Record is the outcome of one generated request, in submission order.
type Record struct {
	Seq         int
	Status      int
	ID          int
	Reliability float64
	Met         bool
	Counts      []int
	Secondaries [][]int
	ServedBy    string
	// Tenant is the tenant the request was billed to (empty without a mix);
	// Initial is the admitted placement's pre-augmentation reliability u₀.
	// Reason is how the service decided the request; Status is its HTTP
	// status.
	Tenant  string
	Initial float64
	Reason  serve.Reason
	// Latency is enqueue → answer for this request (zero for submissions
	// rejected at the queue). Feeds dessim -overload's per-tenant p99;
	// excluded from PlacementLog, which must stay timing-independent.
	Latency time.Duration
}

// Result aggregates one load-generator run.
type Result struct {
	Records    []Record
	Admitted   int
	Infeasible int
	Rejected   int // submissions refused (quota, queue bounds, draining)
	Quota      int // subset of Rejected denied by a tenant token bucket
	Shed       int // 429s shed by knapsack admission after being queued
	Deadline   int
	Released   int

	// Chaos counters (populated only when Config.Chaos.Enabled).
	NodeEvents         int // node health transitions applied
	InstancesDestroyed int // VNF instances destroyed by failures
	ReaugAttempted     int // re-augmentation attempts across all rounds
	ReaugRestored      int // sessions restored to u >= ρ
	ReaugDegraded      int // sessions re-served below ρ (alerted)
	ReaugLost          int // sessions abandoned after the retry budget
	// ChaosLines is the canonical chaos log: one line per applied event and
	// per non-empty re-augmentation round, timing-independent — the chaos
	// determinism tests compare it alongside PlacementLog.
	ChaosLines []string
}

// ChaosLog renders the canonical chaos event/re-augmentation log, compared
// across runs by the chaos determinism tests (empty without chaos).
func (r *Result) ChaosLog() string {
	if len(r.ChaosLines) == 0 {
		return ""
	}
	return strings.Join(r.ChaosLines, "\n") + "\n"
}

// PlacementLog renders the canonical per-request placement log used by the
// determinism tests: one line per submitted request, independent of
// timing and worker count.
func (r *Result) PlacementLog() string {
	var b strings.Builder
	for _, rec := range r.Records {
		tenant := ""
		if rec.Tenant != "" {
			tenant = " tenant=" + rec.Tenant
		}
		if rec.Reason != serve.ReasonPlaced {
			reason := ""
			if rec.Reason == serve.ReasonQuota || rec.Reason == serve.ReasonShed {
				reason = " reason=" + rec.Reason.String()
			}
			fmt.Fprintf(&b, "seq=%d status=%d%s%s\n", rec.Seq, rec.Status, reason, tenant)
			continue
		}
		fmt.Fprintf(&b, "seq=%d id=%d rel=%.9f met=%v counts=%v sec=%v by=%s%s\n",
			rec.Seq, rec.ID, rec.Reliability, rec.Met, rec.Counts, rec.Secondaries, rec.ServedBy, tenant)
	}
	return b.String()
}

// Run submits cfg.Requests augmentations to svc in declared waves and returns
// the aggregated result. It must be the only producer touching svc while it
// runs; determinism of the resulting placements is inherited from the
// service's sequence-seeded batching over whole waves.
func Run(svc *serve.Service, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}

	var chaos chaosSchedule
	totalWaves := (cfg.Requests + cfg.WaveSize - 1) / cfg.WaveSize
	if cfg.Chaos.Enabled {
		chaos = buildChaosSchedule(svc.Cloudlets(), cfg.Chaos.withDefaults(), totalWaves)
	}

	var admittedIDs []int
	submitted, waveIdx := 0, 0
	for submitted < cfg.Requests {
		wave := cfg.WaveSize
		if left := cfg.Requests - submitted; wave > left {
			wave = left
		}
		entries := make([]waveEntry, 0, wave)
		endWave := svc.BeginWave()
		for i := 0; i < wave; i++ {
			entry, err := submit(svc, nextRequest(rng, svc, cfg), submitted)
			if err != nil {
				endWave()
				return nil, err
			}
			entries = append(entries, entry)
			submitted++
		}
		endWave()
		for _, e := range entries {
			if id := collectEntry(res, e); id > 0 {
				admittedIDs = append(admittedIDs, id)
			}
		}
		// Between waves, optionally release every k-th admitted placement —
		// a deterministic point in the stream, so capacity restoration does
		// not perturb the determinism contract.
		if cfg.ReleaseEvery > 0 {
			for len(admittedIDs) >= cfg.ReleaseEvery {
				id := admittedIDs[cfg.ReleaseEvery-1]
				admittedIDs = admittedIDs[cfg.ReleaseEvery:]
				if _, err := svc.Release(id); err == nil {
					res.Released++
				}
			}
		}
		// Chaos events and their audit/re-augmentation round run between
		// waves, from this single producer goroutine — the re-admissions they
		// enqueue take deterministic sequence numbers.
		if chaos != nil {
			chaos.applyWave(svc, res, waveIdx)
		}
		waveIdx++
	}
	if chaos != nil {
		chaos.drain(svc, res, waveIdx-1)
	}
	return res, nil
}

// waveEntry is one in-flight submission of a wave: its record so far (the
// reason too, when the service refused it), when it was submitted, and its
// ticket otherwise.
type waveEntry struct {
	rec       Record
	submitted time.Time
	ticket    *serve.Ticket
}

// submit enqueues ar as submission seq. A refusal is an entry too; any other
// error (a request the service finds malformed) is returned.
func submit(svc *serve.Service, ar serve.AugmentRequest, seq int) (waveEntry, error) {
	e := waveEntry{rec: Record{Seq: seq, Tenant: ar.Tenant}, submitted: time.Now()}
	t, err := svc.Enqueue(ar)
	var refused *serve.Rejection
	switch {
	case errors.As(err, &refused):
		e.rec.Reason = refused.Reason
	case err != nil:
		return e, fmt.Errorf("loadgen: submission %d: %w", seq, err)
	}
	e.ticket = t
	return e, nil
}

// collectEntry waits for one wave entry's outcome, appends its record to res
// (updating the aggregate counters), and returns the admitted placement ID
// (0 when the request was refused or not admitted). Shared by the generator
// and the replay driver so both produce comparable placement logs.
func collectEntry(res *Result, e waveEntry) int {
	rec := e.rec
	if e.ticket != nil {
		out := e.ticket.Wait()
		rec.Latency = time.Since(e.submitted)
		rec.Reason = out.Reason
		if r := out.Response; r != nil {
			rec.ID = r.ID
			rec.Reliability = r.Reliability
			rec.Initial = r.InitialReliability
			rec.Met = r.MetExpectation
			rec.Counts = r.BackupCounts
			rec.Secondaries = r.Secondaries
			rec.ServedBy = r.ServedBy
		}
	}
	rec.Status = rec.Reason.Status()
	switch rec.Reason {
	case serve.ReasonPlaced:
		res.Admitted++
	case serve.ReasonInfeasible:
		res.Infeasible++
	case serve.ReasonDeadline:
		res.Deadline++
	case serve.ReasonShed:
		res.Shed++
	case serve.ReasonQuota:
		res.Quota++
		res.Rejected++
	default:
		res.Rejected++
	}
	res.Records = append(res.Records, rec)
	return rec.ID
}

// nextRequest samples one augment request.
func nextRequest(rng *rand.Rand, svc *serve.Service, cfg Config) serve.AugmentRequest {
	chainLen := cfg.ChainLenMin + rng.Intn(cfg.ChainLenMax-cfg.ChainLenMin+1)
	sfc := make([]int, chainLen)
	for i := range sfc {
		sfc[i] = rng.Intn(svc.CatalogSize())
	}
	ar := serve.AugmentRequest{
		SFC:         sfc,
		Expectation: cfg.Expectation,
		Source:      rng.Intn(svc.NumAPs()),
		Destination: rng.Intn(svc.NumAPs()),
	}
	// Tenant draw happens only with a configured mix, so tenantless configs
	// consume exactly the RNG stream they always did — existing recorded runs
	// stay bit-identical.
	if len(cfg.TenantMix) > 0 {
		total := 0.0
		for _, ts := range cfg.TenantMix {
			total += ts.Share
		}
		u := rng.Float64() * total
		for _, ts := range cfg.TenantMix {
			if u -= ts.Share; u < 0 {
				ar.Tenant = ts.Name
				break
			}
		}
		if ar.Tenant == "" { // float tail: land on the last share
			ar.Tenant = cfg.TenantMix[len(cfg.TenantMix)-1].Name
		}
	}
	return ar
}
