package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/mec"
	"repro/internal/serve"
)

// Shape of the in-process workload: the batcher used the other way round
// from the wire workloads — full batches, four speculating batchers, two
// tenants under fair queueing, a repeat every fourth request, and a cloudlet
// outage every 50 waves.
const (
	waveSize      = 64
	waveDupEvery  = 4
	outageEvery   = 50 // waves between "down" transitions
	outageLength  = 10 // waves until the matching "up"
	traceSampling = 4  // traced runs keep every 4th request's span tree
	// serve.New returns in ~50 µs, so its median needs far more start-ups
	// than a subprocess's to sit still; 101 of them cost 20 ms.
	inprocStarts = 101
)

// traceMode is what a serving repetition does about request tracing.
type traceMode int

const (
	traceDefault traceMode = iota // the program's default: flight recorder on, nothing echoed or kept
	traceOff                      // in process only: tracing disabled, the traced pass's baseline
	traceKept                     // span trees echoed (?trace=1 / Outcome.Trace) and kept for the stage budget
)

func inprocOptions() serve.Options {
	return serve.Options{
		BatchSize: 8, BatchWait: 2 * time.Millisecond, Batchers: 4, Workers: 2, QueueDepth: 1024,
		Admission: serve.AdmissionFair,
		Tenants:   []admission.Tenant{{Name: "gold", Weight: 4}, {Name: "free", Weight: 1}},
		// Parked like the wire servers' -alert-warn/-alert-crit.
		AlertWarnFactor: 1e-9, AlertCritFactor: 1e-9,
	}
}

// healthTimes collects the health layer's timings from the in-process run.
type healthTimes struct {
	applyUS   []float64
	auditMS   []float64
	attempted int
	restored  int
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// waves drives one serve.Service from a single producer goroutine.
type waves struct {
	svc    *serve.Service
	net    *mec.Network
	stream *stream
	oracle *oracle
	run    *servingRun
	traced bool
	lag    int // a wave's sessions are released this many waves later

	byWave  [][]int // session IDs admitted per wave, oldest first
	renamed map[int]int
	rng     *rand.Rand // picks the cloudlet that fails
	downed  int        // cloudlet currently down, or -1
	wave    int
}

// one submits a wave of waveSize requests, waits for every answer, releases
// the wave admitted lag waves ago, and applies any due health transition.
func (w *waves) one(measured bool) error {
	type inflight struct {
		sfc    []int
		ticket *serve.Ticket
		sent   time.Time
	}
	batch := make([]inflight, 0, waveSize)
	for i := 0; i < waveSize; i++ {
		ar := w.stream.next()
		sent := time.Now()
		t, err := w.svc.Enqueue(ar)
		if measured {
			w.run.augments++
		}
		if err != nil {
			if measured {
				w.run.failed++
			}
			continue
		}
		batch = append(batch, inflight{sfc: ar.SFC, ticket: t, sent: sent})
	}
	var ids []int
	for i, f := range batch {
		out := f.ticket.Wait()
		lat := time.Since(f.sent)
		if measured {
			w.run.augLatMS = append(w.run.augLatMS, lat.Seconds()*1e3)
		}
		if out.Status != http.StatusOK {
			if measured {
				w.run.failed++
			}
			continue
		}
		if err := w.oracle.check(f.sfc, out.Response); err != nil {
			return err
		}
		ids = append(ids, out.Response.ID)
		if measured {
			w.run.admitted++
			w.run.relSum += out.Response.Reliability
			if out.Response.MetExpectation {
				w.run.met++
			}
			if w.traced && out.Trace != nil && i%traceSampling == 0 {
				w.run.traced = append(w.run.traced, tracedRequest{clientUS: float64(lat.Nanoseconds()) / 1e3, snap: out.Trace})
			}
		}
	}
	w.byWave = append(w.byWave, ids)
	if len(w.byWave) > w.lag {
		for _, id := range w.byWave[0] {
			id = w.current(id)
			t0 := time.Now()
			_, err := w.svc.Release(id)
			if measured {
				w.run.releases++
				w.run.relLatMS = append(w.run.relLatMS, time.Since(t0).Seconds()*1e3)
				if err != nil {
					w.run.failed++
				}
			}
		}
		w.byWave = w.byWave[1:]
	}
	w.wave++
	switch {
	case w.downed < 0 && w.wave%outageEvery == 0:
		cls := w.net.Cloudlets()
		w.downed = cls[w.rng.Intn(len(cls))]
		return w.transition(w.downed, serve.HealthDown)
	case w.downed >= 0 && w.wave%outageEvery == outageLength:
		v := w.downed
		w.downed = -1
		return w.transition(v, serve.HealthUp)
	}
	return nil
}

// current follows re-augmentation renames to a session's present ID.
func (w *waves) current(id int) int {
	for {
		to, ok := w.renamed[id]
		if !ok {
			return id
		}
		id = to
	}
}

// transition applies one health event followed by an audit round, timing
// both, and follows the session renames re-augmentation reports.
func (w *waves) transition(node int, to string) error {
	t0 := time.Now()
	if _, err := w.svc.ApplyHealth(node, to, "bench"); err != nil {
		return err
	}
	t1 := time.Now()
	rep := w.svc.AuditOnce()
	h := &w.run.health
	h.applyUS = append(h.applyUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
	h.auditMS = append(h.auditMS, time.Since(t1).Seconds()*1e3)
	h.attempted += rep.Attempted
	h.restored += rep.Restored
	for from, to := range rep.Remapped {
		w.renamed[from] = to
	}
	return nil
}

// runInproc runs one repetition of the in-process workload; with traceKept
// it keeps every traceSampling-th span tree.
func runInproc(s *spec, seed int64, seconds float64, mode traceMode) (*servingRun, error) {
	// The wire servers run at -log-level error with alerts parked; in process
	// the watchdog's node alerts would still be formatted, so nothing is
	// logged at all: log formatting is not what is timed.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4})))
	net := s.network()
	run := &servingRun{}
	var svc *serve.Service
	for i := 0; i < inprocStarts; i++ {
		if svc != nil {
			if err := svc.Close(); err != nil {
				return nil, err
			}
		}
		fresh, opt := s.network(), inprocOptions()
		if mode == traceOff {
			opt.TraceDepth = -1
		}
		t0 := time.Now()
		var err error
		if svc, err = serve.New(fresh, opt); err != nil {
			return nil, err
		}
		run.setupS = append(run.setupS, time.Since(t0).Seconds())
	}
	defer svc.Close()

	w := &waves{
		svc: svc, net: net, stream: s.newStream(net, seed, 0), oracle: newOracle(net, s.hopBound),
		run: run, traced: mode == traceKept, lag: s.window, renamed: make(map[int]int), rng: rand.New(rand.NewSource(seed + 11)), downed: -1,
	}
	w.stream.dupEvery = waveDupEvery
	w.stream.tenants = []string{"gold", "free"}
	for i := 0; i < w.lag; i++ { // warm-up: fill the release lag
		if err := w.one(false); err != nil {
			return nil, err
		}
	}
	before, err := scrapeSelf()
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPUSeconds()
	begin := time.Now()
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		if err := w.one(true); err != nil {
			return nil, err
		}
	}
	run.elapsedS = time.Since(begin).Seconds()
	run.cpuS = selfCPUSeconds() - cpu0
	after, err := scrapeSelf()
	if err != nil {
		return nil, err
	}
	run.counters = after.since(before)
	if w.downed >= 0 { // leave every cloudlet up so the ledger oracle sees full capacity
		if err := w.transition(w.downed, serve.HealthUp); err != nil {
			return nil, err
		}
	}

	// Ledger oracle. Health transitions rewrite placements, so the live set
	// is read back by ID from the service rather than from the answers.
	var live []session
	for _, ids := range w.byWave {
		for _, id := range ids {
			id = w.current(id)
			p, ok := svc.State().Placement(id)
			if !ok {
				return nil, fmt.Errorf("%s: live session %d is unknown to the service", s.name, id)
			}
			// A node failure leaves destroyed primaries at -1; the ledger
			// oracle skips those.
			live = append(live, session{id: p.ID, sfc: p.SFC, primaries: p.Primaries, secondaries: p.Secondaries})
		}
	}
	cloudlets, _, _ := svc.State().Snapshot()
	if err := w.oracle.checkLedger(live, cloudlets); err != nil {
		return nil, fmt.Errorf("%s ledger oracle: %w", s.name, err)
	}
	if n := svc.State().PlacedCount(); n != len(live) {
		return nil, fmt.Errorf("%s: service holds %d placements, producer holds %d", s.name, n, len(live))
	}
	if run.peakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	return run, nil
}
