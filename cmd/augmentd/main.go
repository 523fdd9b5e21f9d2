// Command augmentd is the online augmentation service: a long-running
// HTTP/JSON server that admits requests with SFC reliability expectations
// against a live MEC network, places their secondaries through the solver
// registry, and releases them on demand. See API.md for the wire protocol
// and its knob census for who sets each flag.
//
//	go run ./cmd/augmentd -addr :8080 -obs-addr :9090
//	go run ./cmd/augmentd -wal-dir /var/lib/augmentd
//	go run ./cmd/augmentd -selftest -requests 128 -selftest-workers 1,8 -selftest-batchers 1,4
//	curl localhost:8080/v1/healthz
//
// In server mode SIGINT/SIGTERM drain gracefully: the admission queue stops
// accepting (503), every queued request is still solved and answered, then
// the listener shuts down. The verification harness (-selftest, -replay,
// -kill, -chaos, -restore-only) opens no socket; it lives in harness.go.
//
// Network and admission model. -seed samples the network at -residual
// residual-capacity fraction and -capacity-scale capacity multiplier;
// -scenario serves a netio JSON scenario instead. -l bounds secondary
// placement hops and -admit picks the primary placement policy (random or
// maxrel).
//
// Serving pipeline. -queue bounds the admission queue (full answers 429),
// -batch bounds a micro-batch (a batch is dispatched when it is full or the
// queue runs empty — no request waits on a timer), -workers sets solver
// workers per batch and -batchers how many batches may be between dispatch
// and answer (execution is serial in batch order; the WAL flush and answers
// of one batch overlap the execution of the next); -solver serves the
// augmentations: a registered solver name, or an ad-hoc fallback chain such
// as "ILP@50ms,Heuristic,Greedy".
//
// Multi-tenant admission economics. -tenants declares tenants as
// "name[:weight=W,rate=R,burst=B];..." — weight feeds the fair-queueing
// quanta and knapsack values; rate/burst arm a token-bucket quota refilled
// on the virtual batch clock, so quota decisions replay bit-identically.
// -admission picks the queue discipline: fifo, fair (deficit round-robin
// over per-tenant sub-queues), or knapsack (fair queueing plus value-ordered
// shedding under scarcity).
//
// Durability. -wal-dir, -wal-sync, and -snapshot-every configure the
// write-ahead log. A directory is one history: the service always boots from
// what -wal-dir holds — the exact pre-crash state, or the fresh network when
// it is empty — and prints the restored state line; -restore-only prints
// that line and exits.
//
// Observability and failure handling. -obs-addr, -log-level; -alert-warn and
// -alert-crit set the session alert thresholds; -probe-every runs the
// watchdog audit + re-augmentation loop in server mode.
//
// Selftest and replay. -selftest runs the deterministic in-process load
// generator (-requests, -release-every, -tenant-mix shape the stream) at
// every -selftest-workers × -selftest-batchers combination and exits
// non-zero unless the placement logs are bit-identical, nothing was dropped
// below the queue bound, and — with -wal-dir, which must be empty — each
// run's WAL replays to its final state. -record writes a replayable trace
// and -replay verifies one at every combination. -kill runs one pass, prints
// the durable state line and SIGKILLs the process (`make smoke-recover`).
// -chaos injects a seeded outage schedule between waves (-chaos-mtbf,
// -chaos-mttr, -chaos-degraded) and additionally pins the chaos log and zero
// silent SLO violations (`make smoke-chaos`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mec"
	"repro/internal/netio"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/workload"
)

// config is the parsed and validated command line.
type config struct {
	addr, obsAddr, logLevel string
	// The served network: the -scenario file, or the one sampled from
	// opt.Seed at these fractions.
	scenario                string
	residual, capacityScale float64
	// opt is the service the flags describe. Server mode serves it as is; the
	// harness varies Workers, Batchers, WALDir and RecordPath per combination.
	opt serve.Options

	restoreOnly, selftest, kill bool
	replay                      string
	load                        loadgen.Config // the selftest's request stream
	workerSpec, batcherSpec     string         // the combinations the harness verifies
}

// parseFlags parses and validates the command line; a non-nil error is a
// usage error (exit 2).
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	var solverSpec, tenantSpec, tenantMixSpec string
	fs := flag.NewFlagSet("augmentd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.addr, "addr", ":8080", "HTTP listen address for the augmentation API")
	fs.Int64Var(&c.opt.Seed, "seed", 1, "seed for the sampled network and per-request RNG derivations")
	fs.Float64Var(&c.residual, "residual", 0.25, "residual capacity fraction of the sampled network")
	fs.IntVar(&c.opt.HopBound, "l", 1, "hop bound for secondary placement")
	fs.Float64Var(&c.capacityScale, "capacity-scale", 1, "multiplier on sampled cloudlet capacities (sustained-admission load-test regimes)")
	fs.StringVar(&c.scenario, "scenario", "", "serve a netio JSON scenario instead of sampling a network")
	fs.IntVar(&c.opt.QueueDepth, "queue", 64, "admission queue depth (full queue answers 429); the selftest submits in waves of this size")
	fs.IntVar(&c.opt.BatchSize, "batch", 8, "micro-batch size bound B (a batch is dispatched when full or when the queue runs empty)")
	fs.IntVar(&c.opt.Workers, "workers", 0, "solver workers per batch (0 = GOMAXPROCS)")
	fs.IntVar(&c.opt.Batchers, "batchers", 1, "micro-batches that may be between dispatch and answer (batches execute one at a time, in order; flush and answers overlap the next execution)")
	fs.StringVar(&solverSpec, "solver", "Failsafe", "registered solver serving augmentations ("+strings.Join(core.Names(), ", ")+"), or a fallback chain, e.g. \"ILP@50ms,Heuristic,Greedy\"")
	fs.StringVar(&c.opt.AdmitPolicy, "admit", serve.AdmitRandom, "primary placement policy: random or maxrel")
	fs.StringVar(&c.opt.WALDir, "wal-dir", "", "write-ahead-log directory for durable epochs; the service boots from what it holds (empty: durability off)")
	fs.StringVar(&c.opt.WALSync, "wal-sync", "always", "WAL fsync policy: always or none")
	fs.IntVar(&c.opt.SnapshotEvery, "snapshot-every", 256, "WAL checkpoint cadence in entries")
	fs.BoolVar(&c.restoreOnly, "restore-only", false, "replay -wal-dir, print the restored state line, and exit")
	fs.StringVar(&c.obsAddr, "obs-addr", "", "serve /metrics, /debug/vars, /debug/pprof/ on this address (e.g. :9090; empty: off)")
	fs.StringVar(&c.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.BoolVar(&c.selftest, "selftest", false, "run the in-process load-generator selftest instead of serving")
	fs.IntVar(&c.load.Requests, "requests", 128, "selftest: requests per run")
	fs.StringVar(&c.workerSpec, "selftest-workers", "1,8", "selftest: comma-separated worker counts that must agree")
	fs.StringVar(&c.batcherSpec, "selftest-batchers", "1,4", "selftest: comma-separated batcher counts that must agree")
	fs.IntVar(&c.load.ReleaseEvery, "release-every", 16, "selftest: release every k-th placement (0 off)")
	fs.BoolVar(&c.kill, "kill", false, "selftest: run the first combination only, print the durable state line, then SIGKILL the process (requires -wal-dir)")
	fs.StringVar(&c.opt.RecordPath, "record", "", "append every admitted request and release to this replayable trace file (in -selftest mode, the first combination is recorded)")
	fs.StringVar(&c.replay, "replay", "", "replay a recorded trace file through fresh services at every -selftest-workers × -selftest-batchers combination and verify bit-identity against its EOF trailer")
	fs.Float64Var(&c.opt.AlertWarnFactor, "alert-warn", 0, "session WARN threshold factor: u < rho*factor warns (0: serve default 1.05)")
	fs.Float64Var(&c.opt.AlertCritFactor, "alert-crit", 0, "session CRIT threshold factor: u < rho*factor is critical (0: serve default 1.0)")
	fs.DurationVar(&c.opt.ProbeEvery, "probe-every", 0, "server mode: watchdog audit + re-augmentation cadence (0: no round ever runs; sessions a node failure queues stay queued and alerted)")
	fs.BoolVar(&c.load.Chaos.Enabled, "chaos", false, "selftest: inject deterministic node failures between waves (the chaos drill)")
	fs.Float64Var(&c.load.Chaos.MeanUpWaves, "chaos-mtbf", 8, "selftest: mean waves between cloudlet failures (exponential)")
	fs.Float64Var(&c.load.Chaos.MeanDownWaves, "chaos-mttr", 2, "selftest: mean cloudlet outage length in waves (exponential)")
	fs.Float64Var(&c.load.Chaos.DegradedRatio, "chaos-degraded", 0, "selftest: probability a failure arrives as degraded instead of down")
	fs.StringVar(&tenantSpec, "tenants", "", "tenant declarations \"name[:weight=W,rate=R,burst=B];...\" (empty: single default tenant)")
	fs.StringVar(&c.opt.Admission, "admission", serve.AdmissionFIFO, "admission queue discipline: fifo, fair, or knapsack")
	fs.StringVar(&tenantMixSpec, "tenant-mix", "", "selftest: tenant shares for generated requests, e.g. \"gold:0.2,free:0.8\"")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	if c.opt.Tenants, err = admission.ParseTenants(tenantSpec); err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	if c.load.TenantMix, err = loadgen.ParseTenantMix(tenantMixSpec); err != nil {
		return nil, fmt.Errorf("-tenant-mix: %w", err)
	}
	if c.opt.Solver, err = core.ParseSolver("augmentd", solverSpec); err != nil {
		return nil, fmt.Errorf("-solver: %w", err)
	}
	if (c.restoreOnly || c.kill) && c.opt.WALDir == "" {
		return nil, errors.New("-restore-only and -kill require -wal-dir")
	}
	// The generated stream shares the service's seed and is submitted in
	// waves of the queue depth, the largest wave that cannot overflow it.
	c.load.Seed, c.load.WaveSize = c.opt.Seed, c.opt.QueueDepth
	// The probe loop is wall-clock-driven and only belongs in server mode:
	// selftest and replay runs drive audits deterministically between waves.
	if c.selftest || c.replay != "" {
		c.opt.ProbeEvery = 0
	}
	// A replay verifies against the trace's own trailer: it journals nothing,
	// records nothing and kills nothing.
	if c.replay != "" {
		c.opt.WALDir, c.opt.RecordPath, c.kill = "", "", false
	}
	return c, nil
}

// network builds the served network: the -scenario file, or the one sampled
// from -seed.
func (c *config) network() (*mec.Network, error) {
	if c.scenario != "" {
		scen, err := netio.ReadFile(c.scenario)
		if err != nil {
			return nil, err
		}
		net, _, err := scen.Build()
		return net, err
	}
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = c.residual
	cfg.HopBound = c.opt.HopBound
	cfg.CapacityMin *= c.capacityScale
	cfg.CapacityMax *= c.capacityScale
	return cfg.Network(rand.New(rand.NewSource(c.opt.Seed))), nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 success, 1 a
// failed run or verification, 2 a usage or configuration error.
func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "augmentd: %v\n", err)
		}
		return 2
	}
	obsSrv, err := obs.Boot(c.logLevel, c.obsAddr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if obsSrv != nil {
		defer obsSrv.Close()
	}
	h := &harness{cfg: c, stdout: stdout, stderr: stderr}
	switch {
	case c.replay != "":
		return h.replay()
	case c.restoreOnly:
		return h.restoreOnly()
	case c.selftest:
		return h.selftest()
	}
	return serveHTTP(c, stdout, stderr)
}

// printRestored prints the state a WAL directory replays to; the recovery
// drills compare this line across processes.
func printRestored(w io.Writer, st *serve.State) {
	fmt.Fprintf(w, "restored state: hash=%016x placed=%d epoch=%d\n", st.Hash(), st.PlacedCount(), st.Epoch())
}

// serveHTTP is server mode: serve until SIGINT/SIGTERM, then drain.
func serveHTTP(c *config, stdout, stderr io.Writer) int {
	svc, code := newService(c, stderr, c.opt)
	if svc == nil {
		return code
	}
	if c.opt.WALDir != "" {
		printRestored(stdout, svc.State())
	}
	srv := &http.Server{Addr: c.addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	slog.Info("augmentd serving", "addr", c.addr, "solver", svc.SolverName(),
		"queue", c.opt.QueueDepth, "batch", c.opt.BatchSize,
		"batchers", c.opt.Batchers, "wal_dir", c.opt.WALDir)
	select {
	case err := <-errCh:
		fmt.Fprintf(stderr, "augmentd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	slog.Info("augmentd draining: refusing new admissions, flushing queue")
	if err := svc.Close(); err != nil {
		fmt.Fprintf(stderr, "augmentd: close: %v\n", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "augmentd: shutdown: %v\n", err)
		return 1
	}
	slog.Info("augmentd drained cleanly")
	return 0
}

// newService builds one service on a freshly built network. A nil service
// comes with the exit code: 1 when the network cannot be built, 2 when the
// options are refused.
func newService(c *config, stderr io.Writer, opt serve.Options) (*serve.Service, int) {
	net, err := c.network()
	if err != nil {
		fmt.Fprintf(stderr, "augmentd: %v\n", err)
		return nil, 1
	}
	svc, err := serve.New(net, opt)
	if err != nil {
		fmt.Fprintf(stderr, "augmentd: %v\n", err)
		return nil, 2
	}
	return svc, 0
}
