// Package des is a discrete-event driver for dynamic request arrivals in an
// MEC network. The paper solves the augmentation problem for a single
// admitted request; real networks see a churn of requests arriving (Poisson)
// and departing (exponential holding times). The simulator owns virtual time
// — the event heap, the arrival, holding and outage draws, the warm-up cut
// and the time-integrated metrics — and nothing else: every arrival,
// departure, cloudlet crash and repair is a call into an in-process serving
// stack (internal/serve), so the blocking probability, expectation-
// satisfaction rate and utilization it reports (the metrics of the
// dynamic-arrival literature the paper cites, [12], [13]) are numbers about
// the code that is journaled, replayed and benchmarked. Config.Order
// re-deals one sampled stream in another order (neediest or shortest first),
// so admission orders compare on identical arrivals.
//
// The service solves through a core.Fallback chain (Config.Solver; by
// default Heuristic → Greedy); a request no stage can serve is recorded as
// Blocked instead of aborting the run. Optional seeded cloudlet crash/repair
// injection (FaultConfig) reports SLO-violation time, re-augmentation
// outcomes and the blast radius of each crash — a dynamic cross-check of
// internal/failsim's static availability numbers.
package des

import (
	"container/heap"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/failsim"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Config parameterizes a simulation run.
type Config struct {
	// ArrivalRate λ: mean request arrivals per unit time (> 0).
	ArrivalRate float64
	// MeanHold 1/μ: mean session duration (> 0). math.Inf(1) holds every
	// admitted session past the horizon, so capacity only drains — batch
	// admission of one stream.
	MeanHold float64
	// Horizon is the simulated time span (> 0).
	Horizon float64
	// Warmup discards metrics before this time (transient removal).
	Warmup float64
	// Workload generates the network and per-request shapes.
	Workload workload.Config
	// Solver serves every augmentation (cmd/dessim resolves its -solver
	// spec through core.ParseSolver). nil is the service's default, the
	// registered Failsafe chain Heuristic → Greedy.
	Solver core.Solver
	// Order re-deals the sampled requests over the sampled arrival times
	// (one of Orders; "" is "arrival", the order they were drawn in). It
	// draws nothing, so every order sees the same times, requests and
	// service seed.
	Order string
	// Faults configures seeded cloudlet crash/repair injection.
	Faults FaultConfig
}

// FaultConfig parameterizes seeded cloudlet crash/repair injection: each
// cloudlet alternates exponentially distributed up and down periods,
// independent of the others (failsim.Renewal draws the process). A crash is
// a "down" health transition — the service destroys every VNF instance hosted
// on the cloudlet, takes its remaining capacity offline and re-augments the
// sessions that fell below their expectation, within its retry budget; a
// repair is an "up" transition that returns the full capacity. This is the
// regime the online-backup literature (Wang et al., failure-aware edge
// backup) studies.
type FaultConfig struct {
	// Enabled turns fault injection on.
	Enabled bool
	// MeanUp is a cloudlet's mean time between repair and next crash
	// (exponential; > 0). This is the MTBF knob.
	MeanUp float64
	// MeanDown is a cloudlet's mean repair duration (exponential; > 0).
	// This is the MTTR knob.
	MeanDown float64
}

// Orders lists the arrival orders Config.Order accepts: first come first
// served; the largest reliability deficit ρ − Π r_i first, spending contended
// capacity where it is most needed; and the shortest chain first, since short
// chains need the fewest backups to meet ρ.
var Orders = []string{"arrival", "neediest", "shortest"}

func (c Config) validate() error {
	if c.ArrivalRate <= 0 || c.MeanHold <= 0 || c.Horizon <= 0 {
		return fmt.Errorf("des: rate %v, hold %v, horizon %v must be positive", c.ArrivalRate, c.MeanHold, c.Horizon)
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return fmt.Errorf("des: warmup %v out of [0,%v)", c.Warmup, c.Horizon)
	}
	if c.Order != "" && !slices.Contains(Orders, c.Order) {
		return fmt.Errorf("des: unknown order %q (want %s)", c.Order, strings.Join(Orders, ", "))
	}
	return nil
}

// Metrics aggregates a run (post-warmup unless stated).
type Metrics struct {
	Arrivals int
	Accepted int
	Blocked  int // the service refused the request: no capacity, no solver stage, or no commit
	Met      int // accepted and reached ρ at admission
	// ServedByStage counts successful solves (admission and
	// re-augmentation, full horizon) per fallback stage that served them.
	ServedByStage map[string]int
	// BlockingProbability = Blocked / Arrivals.
	BlockingProbability float64
	// MetRate = Met / Accepted.
	MetRate float64
	// MeanReliability over accepted requests.
	MeanReliability float64
	// MeanUtilization is the time-averaged fraction of total cloudlet
	// capacity in use across the full horizon (including warmup, since it is
	// a state average, reported from warmup onwards). Capacity taken offline
	// by a crash counts as in use — from the operator's view it is equally
	// unavailable.
	MeanUtilization float64
	// MeanActive is the time-averaged number of concurrent sessions.
	MeanActive float64

	// Fault-injection metrics (full horizon; zero when faults are off):
	Crashes         int
	Repairs         int
	Reaugmented     int // crash-affected sessions the service re-served (at or below ρ)
	ReaugFailed     int // sessions the service declared lost after its retry budget
	DroppedSessions int // sessions whose placement was gone after a crash settled
	// BlastRadii records, per crash event in time order, how many active
	// sessions lost at least one VNF instance.
	BlastRadii []int
	// SLOViolationTime integrates, over [Warmup, Horizon], the session-time
	// during which an accepted session's placement did not meet its
	// reliability expectation ρ — from admission shortfall, from a crash
	// the re-augmentation could not fully repair, or (for dropped sessions)
	// until the session's intended departure.
	SLOViolationTime float64
}

type eventKind int

const (
	evArrival eventKind = iota
	evDeparture
	evCrash
	evRepair
)

// session is one admitted request's simulator-side state.
type session struct {
	id  int  // serve placement ID (a repair keeps it)
	met bool // current placement meets ρ (false once dropped)
}

// event is an arrival, departure, cloudlet crash, or cloudlet repair.
type event struct {
	t    float64
	kind eventKind
	req  serve.AugmentRequest // arrival
	sess *session             // departure
	node int                  // crash/repair: the cloudlet
}

type eventHeap []*event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// Run executes the simulation. The network is sampled from cfg.Workload with
// full residual capacity (the residual-fraction knob does not apply to the
// dynamic regime; churn itself produces partial occupancy) and handed to a
// fresh service that admits one request per batch.
//
// Determinism: a run is a pure function of (cfg, the rng stream). The event
// loop is the service's only producer and waits for every answer before its
// next call, the service seeds each request's placement and solve from its
// admission sequence number, and re-augmentation visits sessions in
// ascending id order, so two runs with the same seed produce bit-identical
// metrics and crash/repair trajectories — unless the ILP stage carries a
// budget: the budget becomes the ILP's deadline, and where the search stands
// when it fires depends on the machine, which deliberately trades
// reproducibility for latency.
func Run(cfg Config, rng *rand.Rand) (*Metrics, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	wl := cfg.Workload
	wl.ResidualFraction = 1.0
	net := wl.Network(rng)

	var q eventHeap
	// Pre-generate the fault process (its rng is split off the main stream
	// with a single draw so enabling faults shifts, never interleaves, the
	// arrival stream).
	if cfg.Faults.Enabled {
		faultRng := rand.New(rand.NewSource(rng.Int63()))
		outages, err := failsim.Renewal(net.Cloudlets(), cfg.Faults.MeanUp, cfg.Faults.MeanDown, cfg.Horizon, faultRng)
		if err != nil {
			return nil, fmt.Errorf("des: %w", err)
		}
		for _, tr := range outages {
			kind := evCrash
			if tr.Up {
				kind = evRepair
			}
			heap.Push(&q, &event{t: tr.At, kind: kind, node: tr.Node})
		}
	}
	// Pre-generate the arrival process, then deal the requests over the
	// arrival times in cfg.Order.
	var times []float64
	var reqs []*mec.Request
	for t := expDraw(rng, 1/cfg.ArrivalRate); t < cfg.Horizon; t += expDraw(rng, 1/cfg.ArrivalRate) {
		times = append(times, t)
		// The service numbers the requests it admits; the sampled ID is unused.
		reqs = append(reqs, wl.Request(rng, 0, net.Catalog().Size()))
	}
	switch cfg.Order {
	case "neediest":
		deficit := func(r *mec.Request) float64 { return r.Expectation - admission.InitialReliability(net, r) }
		sort.SliceStable(reqs, func(a, b int) bool { return deficit(reqs[a]) > deficit(reqs[b]) })
	case "shortest":
		sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Len() < reqs[b].Len() })
	}
	for i, req := range reqs {
		heap.Push(&q, &event{t: times[i], kind: evArrival, req: serve.AugmentRequest{
			SFC: req.SFC, Expectation: req.Expectation, Source: req.Source, Destination: req.Destination,
		}})
	}

	svc, err := serve.New(net, serve.Options{
		Solver:    cfg.Solver,
		Seed:      rng.Int63(),
		BatchSize: 1,
		Workers:   1,
		// Nobody reads this service's flight recorder.
		TraceDepth: -1,
		// Session shortfalls are this package's SLO-violation metric, not an
		// operator's pager: park the thresholds so a saturated run does not
		// log an alert per session.
		AlertWarnFactor: 1e-9,
		AlertCritFactor: 1e-9,
	})
	if err != nil {
		return nil, fmt.Errorf("des: %w", err)
	}
	defer svc.Drain()
	slog.Info("des: starting run",
		"rate", cfg.ArrivalRate, "mean_hold", cfg.MeanHold,
		"horizon", cfg.Horizon, "warmup_cutoff", cfg.Warmup, "solver", svc.SolverName(),
		"faults", cfg.Faults.Enabled)
	state := svc.State()
	initial, _, _ := state.Snapshot()

	m := &Metrics{ServedByStage: make(map[string]int)}
	lastT := cfg.Warmup
	// violating counts the sessions below ρ right now: admitted short,
	// repaired short, or dropped and not yet at their intended departure.
	// Its time integral is SLOViolationTime.
	violating := 0
	sessions := make(map[int]*session) // live sessions by serve placement ID
	setMet := func(s *session, met bool) {
		switch {
		case s.met && !met:
			violating++
		case !s.met && met:
			violating--
		}
		s.met = met
	}
	// tick integrates the state averages over (lastT, now], clamped to the
	// measured window [Warmup, Horizon]; the means are divided by its span
	// at the end.
	tick := func(now float64) {
		now = math.Min(now, cfg.Horizon)
		if now <= lastT {
			return
		}
		cloudlets, _, _ := state.Snapshot()
		used, total := 0.0, 0.0
		for _, c := range cloudlets {
			used += c.Capacity - c.Residual
			total += c.Capacity
		}
		m.MeanUtilization += used / total * (now - lastT)
		m.MeanActive += float64(len(sessions)) * (now - lastT)
		m.SLOViolationTime += float64(violating) * (now - lastT)
		lastT = now
	}

	// Only departures are scheduled past the horizon; they run through the
	// same path, so the conservation check below sees every session released.
	for q.Len() > 0 {
		ev := heap.Pop(&q).(*event)
		tick(ev.t)
		switch ev.kind {
		case evDeparture:
			s := ev.sess
			setMet(s, true)
			if sessions[s.id] != s {
				continue // dropped at a crash: the service already took its capacity back
			}
			if _, err := svc.Release(s.id); err != nil {
				return nil, fmt.Errorf("des: departure at t=%v: %w", ev.t, err)
			}
			delete(sessions, s.id)

		case evArrival:
			counted := ev.t >= cfg.Warmup
			if counted {
				m.Arrivals++
			}
			ticket, err := svc.Enqueue(ev.req)
			if err != nil {
				return nil, fmt.Errorf("des: arrival at t=%v: %w", ev.t, err)
			}
			out := ticket.Wait()
			if out.Reason != serve.ReasonPlaced {
				if counted {
					m.Blocked++
				}
				continue
			}
			res := out.Response
			m.ServedByStage[res.ServedBy]++
			s := &session{id: res.ID, met: true}
			setMet(s, res.MetExpectation)
			sessions[s.id] = s
			heap.Push(&q, &event{t: ev.t + expDraw(rng, cfg.MeanHold), kind: evDeparture, sess: s})
			if counted {
				m.Accepted++
				m.MeanReliability += res.Reliability
				if res.MetExpectation {
					m.Met++
				}
			}

		case evCrash:
			nr, err := svc.ApplyHealth(ev.node, serve.HealthDown, "des crash")
			if err != nil {
				return nil, fmt.Errorf("des: crash at t=%v: %w", ev.t, err)
			}
			m.Crashes++
			m.BlastRadii = append(m.BlastRadii, nr.SessionsAffected)
			// Settle the re-augmentation queue before virtual time moves on;
			// a repair keeps the session's ID and clears its record's Failed.
			failed := make(map[int]bool)
			for id := range sessions {
				if p, _ := state.Placement(id); p.Failed {
					failed[id] = true
				}
			}
			for _, rep := range svc.SettleReaug() {
				m.Reaugmented += rep.Restored + rep.Degraded
				m.ReaugFailed += rep.Lost
			}
			for id, s := range sessions {
				p, live := state.Placement(id)
				if !live { // given up on: violated until its intended departure
					m.DroppedSessions++
					setMet(s, false)
					delete(sessions, id)
					continue
				}
				if failed[id] && !p.Failed {
					m.ServedByStage[p.ServedBy]++
				}
				setMet(s, p.Met)
			}

		case evRepair:
			if _, err := svc.ApplyHealth(ev.node, serve.HealthUp, "des repair"); err != nil {
				return nil, fmt.Errorf("des: repair at t=%v: %w", ev.t, err)
			}
			m.Repairs++
		}
	}
	tick(cfg.Horizon)

	// Conservation: with every session released and every dark cloudlet
	// repaired, the ledger must be back where it started.
	for _, v := range state.DownNodes() {
		if _, err := svc.ApplyHealth(v, serve.HealthUp, "des end of run"); err != nil {
			return nil, fmt.Errorf("des: %w", err)
		}
	}
	end, _, _ := state.Snapshot()
	for i, c := range end {
		if math.Abs(c.Residual-initial[i].Residual) > 1e-6 {
			return nil, fmt.Errorf("des: capacity leaked: cloudlet %d ends the run with %v MHz free, started with %v (%d placements still live)",
				c.ID, c.Residual, initial[i].Residual, state.PlacedCount())
		}
	}

	if m.Arrivals > 0 {
		m.BlockingProbability = float64(m.Blocked) / float64(m.Arrivals)
	}
	if m.Accepted > 0 {
		m.MetRate = float64(m.Met) / float64(m.Accepted)
		m.MeanReliability /= float64(m.Accepted)
	}
	m.MeanUtilization /= cfg.Horizon - cfg.Warmup
	m.MeanActive /= cfg.Horizon - cfg.Warmup
	m.record(svc.SolverName())
	return m, nil
}

// record publishes the warmup-excluded aggregates into the default registry
// and logs the run summary. It runs once per Run, after the event loop and
// conservation check, so it cannot perturb the seeded simulation.
func (m *Metrics) record(solver string) {
	r := obs.Default()
	r.Counter("des_arrivals_total", "solver", solver).Add(int64(m.Arrivals))
	r.Counter("des_blocked_total", "solver", solver).Add(int64(m.Blocked))
	r.Counter("des_accepted_total", "solver", solver).Add(int64(m.Accepted))
	r.Counter("des_met_total", "solver", solver).Add(int64(m.Met))
	r.Gauge("des_mean_utilization_ratio", "solver", solver).Set(m.MeanUtilization)
	r.Gauge("des_blocking_probability", "solver", solver).Set(m.BlockingProbability)
	r.Histogram("des_mean_reliability", obs.RatioBuckets, "solver", solver).Observe(m.MeanReliability)
	r.Counter("des_crashes_total", "solver", solver).Add(int64(m.Crashes))
	r.Counter("des_repairs_total", "solver", solver).Add(int64(m.Repairs))
	r.Counter("des_reaug_success_total", "solver", solver).Add(int64(m.Reaugmented))
	r.Counter("des_reaug_failed_total", "solver", solver).Add(int64(m.ReaugFailed))
	r.Counter("des_sessions_dropped_total", "solver", solver).Add(int64(m.DroppedSessions))
	r.Gauge("des_slo_violation_time", "solver", solver).Set(m.SLOViolationTime)
	for _, blast := range m.BlastRadii {
		r.Histogram("des_crash_blast_radius", obs.CountBuckets, "solver", solver).Observe(float64(blast))
	}
	for stage, n := range m.ServedByStage {
		r.Counter("des_served_total", "solver", solver, "stage", stage).Add(int64(n))
	}
	slog.Info("des: run complete",
		"solver", solver, "arrivals", m.Arrivals, "accepted", m.Accepted,
		"blocked", m.Blocked, "met", m.Met,
		"blocking_probability", m.BlockingProbability, "met_rate", m.MetRate,
		"mean_utilization", m.MeanUtilization, "mean_active", m.MeanActive,
		"crashes", m.Crashes, "reaugmented", m.Reaugmented, "dropped", m.DroppedSessions,
		"slo_violation_time", m.SLOViolationTime)
}

// expDraw samples an exponential with the given mean.
func expDraw(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}
