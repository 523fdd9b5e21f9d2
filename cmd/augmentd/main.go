// Command augmentd is the online augmentation service: a long-running
// HTTP/JSON server that admits requests with SFC reliability expectations
// against a live MEC network, places their secondaries through the solver
// registry, and releases them on demand. See API.md for the wire protocol.
//
//	go run ./cmd/augmentd -addr :8080 -obs-addr :9090
//	go run ./cmd/augmentd -selftest -requests 128 -selftest-workers 1,8 -selftest-batchers 1,4
//	go run ./cmd/augmentd -wal-dir /var/lib/augmentd -restore
//	curl -s localhost:8080/v1/healthz
//
// In server mode SIGINT/SIGTERM drain gracefully: the admission queue stops
// accepting (503), every queued request is still solved and answered, then
// the listener shuts down. With -wal-dir every committed epoch is durable and
// -restore boots from the log's exact pre-crash state. In -selftest mode no
// socket is opened: the deterministic in-process load generator runs the same
// request stream at every (workers, batchers) combination from
// -selftest-workers × -selftest-batchers and the process exits non-zero
// unless the placement logs are bit-identical, nothing was dropped below the
// queue bound, and (when -wal-dir is set) replaying each run's WAL reproduces
// its exact final state hash and placement count. The selftest prints one
// throughput line per combination plus the batcher scaling ratio. -kill runs
// one selftest pass, prints the durable state line, and SIGKILLs the process
// mid-flight tooling can then verify with -restore-only (see `make
// smoke-recover`). -chaos turns the selftest into a failure drill:
// deterministic node outages (seeded MTBF/MTTR renewal schedule, -chaos-*)
// are injected between waves, each followed by a watchdog audit +
// re-augmentation round, and the run additionally pins a bit-identical chaos
// log across combinations plus zero silent SLO violations at the end (see
// `make smoke-chaos`).
//
// Flag reference, grouped by concern:
//
// Network and admission model. -seed samples the network: -aps access
// points, -cloudlets cloudlet fraction, -residual residual-capacity
// fraction, -capacity-scale capacity multiplier; -scenario serves a netio
// JSON scenario instead. -l bounds secondary placement hops and -admit
// picks the primary placement policy (random or maxrel).
//
// Serving pipeline. -queue bounds the admission queue (full answers 429),
// -batch bounds a micro-batch (a batch is dispatched when it is full or the
// queue runs empty — no request waits on a timer), -workers sets solver
// workers per batch and -batchers how many batches may be between dispatch
// and answer (execution is serial in batch order; the WAL flush and answers
// of one batch overlap the execution of the next); -solver (or an ad-hoc
// -fallback chain) serves the augmentations and -deadline is the default
// per-request solve deadline.
//
// Multi-tenant admission economics. -tenants declares tenants as
// "name[:weight=W,rate=R,burst=B];..." — weight feeds the fair-queueing
// quanta and knapsack values; rate/burst arm a token-bucket quota refilled
// on the virtual batch clock, so quota decisions replay bit-identically.
// -admission picks the queue discipline: fifo (one arrival-order queue),
// fair (deficit-round-robin over per-tenant sub-queues), or knapsack (fair
// queueing plus value-ordered shedding under scarcity). -scarcity-watermark
// is the residual-capacity fraction below which knapsack shedding engages
// (it packs over a window of four batches). GET /v1/tenants reports
// per-tenant accounting; quota denials answer 429 + Retry-After.
//
// Durability. -wal-dir, -wal-sync, and -snapshot-every configure the
// write-ahead log (tenant quota state is journaled per epoch); -restore
// boots from it and -restore-only verifies it and exits.
//
// Observability. -obs-addr, -log-level, -flight.
//
// Failure handling. -reaug-budget, -alert-warn, -alert-crit, -probe-every
// tune the watchdog, alerting, and re-augmentation loop (a degraded cloudlet
// offers half its free capacity).
//
// Selftest and replay. -requests, -wave, -release-every, -rho,
// -chain-min, -chain-max, and -tenant-mix shape the generated stream;
// -selftest-workers and -selftest-batchers the verified combinations.
// -record writes a replayable trace, -replay verifies one as fast as the
// service absorbs it, -kill runs the durability drill. -chaos arms the
// failure drill: -chaos-seed, -chaos-mtbf, -chaos-mttr, -chaos-degraded
// schedule the outages.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
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

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address for the augmentation API")
	seed := flag.Int64("seed", 1, "seed for the sampled network and per-request RNG derivations")
	residual := flag.Float64("residual", 0.25, "residual capacity fraction of the sampled network")
	hopBound := flag.Int("l", 1, "hop bound for secondary placement")
	aps := flag.Int("aps", 0, "sampled network size in APs (0: workload default)")
	cloudlets := flag.Float64("cloudlets", 0, "cloudlet fraction of sampled APs (0: workload default)")
	capacityScale := flag.Float64("capacity-scale", 1, "multiplier on sampled cloudlet capacities (sustained-admission load-test regimes)")
	scenario := flag.String("scenario", "", "serve a netio JSON scenario instead of sampling a network")
	queueDepth := flag.Int("queue", 64, "admission queue depth (full queue answers 429)")
	batchSize := flag.Int("batch", 8, "micro-batch size bound B (a batch is dispatched when full or when the queue runs empty)")
	workers := flag.Int("workers", 0, "solver workers per batch (0 = GOMAXPROCS)")
	batchers := flag.Int("batchers", 1, "micro-batches that may be between dispatch and answer (batches execute one at a time, in order; flush and answers overlap the next execution)")
	solver := flag.String("solver", "Failsafe", "registered solver serving augmentations ("+strings.Join(core.Names(), ", ")+")")
	fallbackSpec := flag.String("fallback", "", "serve through an ad-hoc fallback chain instead of -solver, e.g. \"ILP@50ms,Heuristic,Greedy\"")
	admit := flag.String("admit", serve.AdmitRandom, "primary placement policy: random or maxrel")
	deadline := flag.Duration("deadline", 0, "default per-request solve deadline (0 = unbounded)")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory for durable epochs (empty: durability off)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always or none")
	snapshotEvery := flag.Int("snapshot-every", 256, "WAL checkpoint cadence in entries")
	restore := flag.Bool("restore", false, "replay -wal-dir before serving (boot with the pre-crash state)")
	restoreOnly := flag.Bool("restore-only", false, "replay -wal-dir, print the restored state line, and exit")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /debug/vars, /debug/pprof/ on this address (e.g. :9090; empty: off)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	selftest := flag.Bool("selftest", false, "run the in-process load-generator selftest instead of serving")
	requests := flag.Int("requests", 128, "selftest: requests per run")
	selftestWorkers := flag.String("selftest-workers", "1,8", "selftest: comma-separated worker counts that must agree")
	selftestBatchers := flag.String("selftest-batchers", "1,4", "selftest: comma-separated batcher counts that must agree")
	wave := flag.Int("wave", 0, "selftest: submissions per wave (0 = queue depth)")
	releaseEvery := flag.Int("release-every", 16, "selftest: release every k-th placement (0 off)")
	rho := flag.Float64("rho", 0.95, "selftest: reliability expectation of generated requests")
	chainMin := flag.Int("chain-min", 0, "selftest: minimum generated SFC length (0: loadgen default)")
	chainMax := flag.Int("chain-max", 0, "selftest: maximum generated SFC length (0: loadgen default)")
	kill := flag.Bool("kill", false, "selftest: run the first combination only, print the durable state line, then SIGKILL the process (requires -wal-dir)")
	record := flag.String("record", "", "append every admitted request and release to this replayable trace file (in -selftest mode, the first combination is recorded)")
	replay := flag.String("replay", "", "replay a recorded trace file through fresh services at every -selftest-workers × -selftest-batchers combination and verify bit-identity against its EOF trailer")
	flight := flag.Int("flight", 256, "flight-recorder depth: completed request traces kept for /debug/traces (negative disables tracing)")
	reaugBudget := flag.Int("reaug-budget", 3, "re-augmentation attempts per failed session before it is declared lost")
	alertWarn := flag.Float64("alert-warn", 0, "session WARN threshold factor: u < rho*factor warns (0: serve default 1.05)")
	alertCrit := flag.Float64("alert-crit", 0, "session CRIT threshold factor: u < rho*factor is critical (0: serve default 1.0)")
	probeEvery := flag.Duration("probe-every", 0, "server mode: watchdog audit + re-augmentation cadence (0: no round ever runs; sessions a node failure queues stay queued and alerted)")
	chaos := flag.Bool("chaos", false, "selftest: inject deterministic node failures between waves (the chaos drill)")
	chaosSeed := flag.Int64("chaos-seed", 1, "selftest: chaos schedule seed (independent of -seed)")
	chaosMTBF := flag.Float64("chaos-mtbf", 8, "selftest: mean waves between cloudlet failures (exponential)")
	chaosMTTR := flag.Float64("chaos-mttr", 2, "selftest: mean cloudlet outage length in waves (exponential)")
	chaosDegraded := flag.Float64("chaos-degraded", 0, "selftest: probability a failure arrives as degraded instead of down")
	tenantSpec := flag.String("tenants", "", "tenant declarations \"name[:weight=W,rate=R,burst=B];...\" (empty: single default tenant)")
	admissionMode := flag.String("admission", serve.AdmissionFIFO, "admission queue discipline: fifo, fair, or knapsack")
	scarcityWatermark := flag.Float64("scarcity-watermark", 0, "residual fraction below which knapsack admission engages (0: serve default 0.25)")
	tenantMixSpec := flag.String("tenant-mix", "", "selftest: tenant shares for generated requests, e.g. \"gold:0.2,free:0.8\"")
	flag.Parse()

	tenants, err := admission.ParseTenants(*tenantSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: -tenants: %v\n", err)
		os.Exit(2)
	}
	tenantMix, err := loadgen.ParseTenantMix(*tenantMixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: -tenant-mix: %v\n", err)
		os.Exit(2)
	}

	obsSrv, err := obs.Boot(*logLevel, *obsAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if obsSrv != nil {
		defer obsSrv.Close()
	}

	buildNetwork := func() *mec.Network {
		if *scenario != "" {
			scen, err := netio.ReadFile(*scenario)
			if err != nil {
				fmt.Fprintf(os.Stderr, "augmentd: %v\n", err)
				os.Exit(1)
			}
			net, _, err := scen.Build()
			if err != nil {
				fmt.Fprintf(os.Stderr, "augmentd: %v\n", err)
				os.Exit(1)
			}
			return net
		}
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = *residual
		cfg.HopBound = *hopBound
		if *aps > 0 {
			cfg.NumAPs = *aps
		}
		if *cloudlets > 0 {
			cfg.CloudletFraction = *cloudlets
		}
		if *capacityScale != 1 {
			cfg.CapacityMin *= *capacityScale
			cfg.CapacityMax *= *capacityScale
		}
		return cfg.Network(rand.New(rand.NewSource(*seed)))
	}

	resolveSolver := func() core.Solver {
		if *fallbackSpec != "" {
			chain, err := core.ParseFallback("augmentd", *fallbackSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "augmentd: -fallback: %v\n", err)
				os.Exit(2)
			}
			return chain
		}
		sv, ok := core.Get(*solver)
		if !ok {
			fmt.Fprintf(os.Stderr, "augmentd: unknown solver %q (registered: %s)\n", *solver, strings.Join(core.Names(), ", "))
			os.Exit(2)
		}
		return sv
	}

	if *restoreOnly {
		if *walDir == "" {
			fmt.Fprintln(os.Stderr, "augmentd: -restore-only requires -wal-dir")
			os.Exit(2)
		}
		st, err := serve.NewStateFromWAL(buildNetwork(), *walDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "augmentd: restore: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("restored state: hash=%016x placed=%d epoch=%d\n", st.Hash(), st.PlacedCount(), st.Epoch())
		return
	}

	traceDepth := *flight
	if traceDepth <= 0 {
		traceDepth = -1 // CLI semantics: any non-positive depth disables tracing
	}
	// The probe loop is wall-clock-driven and only belongs in server mode:
	// selftest and replay runs drive audits deterministically between waves.
	probe := *probeEvery
	if *selftest || *replay != "" {
		probe = 0
	}
	newService := func(w, b int, dir string, restoreState bool, recordPath string) *serve.Service {
		svc, err := serve.New(buildNetwork(), serve.Options{
			QueueDepth:        *queueDepth,
			BatchSize:         *batchSize,
			Workers:           w,
			Batchers:          b,
			Solver:            resolveSolver(),
			HopBound:          *hopBound,
			AdmitPolicy:       *admit,
			DefaultDeadline:   *deadline,
			Seed:              *seed,
			WALDir:            dir,
			WALSync:           *walSync,
			SnapshotEvery:     *snapshotEvery,
			Restore:           restoreState,
			TraceDepth:        traceDepth,
			RecordPath:        recordPath,
			ReaugBudget:       *reaugBudget,
			AlertWarnFactor:   *alertWarn,
			AlertCritFactor:   *alertCrit,
			ProbeEvery:        probe,
			Tenants:           tenants,
			Admission:         *admissionMode,
			ScarcityWatermark: *scarcityWatermark,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "augmentd: %v\n", err)
			os.Exit(2)
		}
		return svc
	}

	if *replay != "" {
		os.Exit(runReplay(replayConfig{
			newService:  newService,
			path:        *replay,
			workerSpec:  *selftestWorkers,
			batcherSpec: *selftestBatchers,
			wave:        *wave,
			queueDepth:  *queueDepth,
			seed:        *seed,
			solverName:  resolveSolver().Name(),
			hopBound:    *hopBound,
			admitPolicy: *admit,
			admission:   *admissionMode,
			tenants:     serve.NormalizedTenants(tenants),
		}))
	}

	if *selftest {
		os.Exit(runSelftest(selftestConfig{
			newService:   newService,
			buildNetwork: buildNetwork,
			requests:     *requests,
			workerSpec:   *selftestWorkers,
			batcherSpec:  *selftestBatchers,
			wave:         *wave,
			queueDepth:   *queueDepth,
			releaseEvery: *releaseEvery,
			rho:          *rho,
			chainMin:     *chainMin,
			chainMax:     *chainMax,
			seed:         *seed,
			walDir:       *walDir,
			kill:         *kill,
			recordPath:   *record,
			tenantMix:    tenantMix,
			multiTenant:  len(tenants) > 0,
			admission:    *admissionMode,
			chaos: loadgen.ChaosConfig{
				Enabled:       *chaos,
				Seed:          *chaosSeed,
				MeanUpWaves:   *chaosMTBF,
				MeanDownWaves: *chaosMTTR,
				DegradedRatio: *chaosDegraded,
			},
		}))
	}

	svc := newService(*workers, *batchers, *walDir, *restore, *record)
	if *restore {
		st := svc.State()
		fmt.Printf("restored state: hash=%016x placed=%d epoch=%d\n", st.Hash(), st.PlacedCount(), st.Epoch())
	}
	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	slog.Info("augmentd serving", "addr", *addr, "solver", svc.SolverName(),
		"queue", *queueDepth, "batch", *batchSize,
		"batchers", *batchers, "wal_dir", *walDir)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "augmentd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	slog.Info("augmentd draining: refusing new admissions, flushing queue")
	if err := svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: close: %v\n", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: shutdown: %v\n", err)
		os.Exit(1)
	}
	slog.Info("augmentd drained cleanly")
}

// selftestConfig gathers everything runSelftest needs from the flag set.
type selftestConfig struct {
	newService   func(workers, batchers int, walDir string, restore bool, recordPath string) *serve.Service
	buildNetwork func() *mec.Network
	requests     int
	workerSpec   string
	batcherSpec  string
	wave         int
	queueDepth   int
	releaseEvery int
	rho          float64
	chainMin     int
	chainMax     int
	seed         int64
	walDir       string
	kill         bool
	recordPath   string // record the first combination's run to this trace file
	tenantMix    []loadgen.TenantShare
	multiTenant  bool   // -tenants was set: print per-tenant accounting
	admission    string // queue discipline; fifo carries the strict zero-drop bound
	chaos        loadgen.ChaosConfig
}

// comboRun is one (workers, batchers) selftest execution.
type comboRun struct {
	workers  int
	batchers int
	result   *loadgen.Result
}

// runSelftest runs the deterministic load generator at every (workers,
// batchers) combination against identically seeded fresh services and pins
// that the placement logs agree, nothing was rejected below the queue bound,
// and — when a WAL directory is set — that replaying each run's log rebuilds
// its exact final state. With chaos enabled it additionally pins bit-identical
// chaos logs, replayed down sets, and zero silent SLO violations. Returns the
// process exit code.
func runSelftest(cfg selftestConfig) int {
	workerCounts, err := parseCounts(cfg.workerSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: bad -selftest-workers %q\n", cfg.workerSpec)
		return 2
	}
	batcherCounts, err := parseCounts(cfg.batcherSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: bad -selftest-batchers %q\n", cfg.batcherSpec)
		return 2
	}
	if cfg.kill && cfg.walDir == "" {
		fmt.Fprintln(os.Stderr, "augmentd: -kill requires -wal-dir")
		return 2
	}
	wave := cfg.wave
	if wave <= 0 {
		wave = cfg.queueDepth
	}
	if wave > cfg.queueDepth {
		fmt.Fprintf(os.Stderr, "augmentd: -wave %d exceeds -queue %d; the zero-drop guarantee needs wave <= queue\n", wave, cfg.queueDepth)
		return 2
	}
	lcfg := loadgen.Config{
		Seed:         cfg.seed,
		Requests:     cfg.requests,
		WaveSize:     wave,
		ChainLenMin:  cfg.chainMin,
		ChainLenMax:  cfg.chainMax,
		Expectation:  cfg.rho,
		ReleaseEvery: cfg.releaseEvery,
		Chaos:        cfg.chaos,
		TenantMix:    cfg.tenantMix,
	}

	var refLog, refChaos string
	var runs []comboRun
	ok := true
	for _, w := range workerCounts {
		for _, b := range batcherCounts {
			dir := ""
			if cfg.walDir != "" {
				if cfg.kill {
					dir = cfg.walDir // single run writes the root log the restore check reads
				} else {
					dir = filepath.Join(cfg.walDir, fmt.Sprintf("run-w%d-b%d", w, b))
				}
			}
			recordPath := ""
			if cfg.recordPath != "" && len(runs) == 0 {
				recordPath = cfg.recordPath
			}
			svc := cfg.newService(w, b, dir, false, recordPath)
			res, err := loadgen.Run(svc, lcfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "augmentd: selftest workers=%d batchers=%d: %v\n", w, b, err)
				return 1
			}
			svc.Drain()
			p50, p99, p999 := latencyQuantiles(res.Records)
			fmt.Printf("selftest workers=%d batchers=%d: %d requests in %v (%.0f req/s), admitted=%d infeasible=%d rejected=%d (quota=%d) shed=%d deadline=%d released=%d p50=%v p99=%v p999=%v\n",
				w, b, len(res.Records), res.Elapsed.Round(time.Millisecond), res.Throughput,
				res.Admitted, res.Infeasible, res.Rejected, res.Quota, res.Shed, res.Deadline, res.Released,
				p50.Round(time.Microsecond), p99.Round(time.Microsecond), p999.Round(time.Microsecond))
			// Quota denials are intentional admission economics, not queue
			// overflow, and under fair or knapsack admission a wave may
			// overflow one tenant's fair-share sub-queue while the global
			// queue still has room — those rejections are the discipline
			// working, and the placement-log comparison still pins them
			// bit-identical across combinations. The strict zero-drop bound
			// is a fifo-admission invariant.
			if cfg.admission == serve.AdmissionFIFO && res.Rejected-res.Quota != 0 {
				fmt.Fprintf(os.Stderr, "augmentd: selftest workers=%d batchers=%d: %d requests rejected below the queue bound\n", w, b, res.Rejected-res.Quota)
				ok = false
			}
			if cfg.multiTenant {
				for _, row := range svc.TenantStats().Tenants {
					fmt.Printf("tenant %s workers=%d batchers=%d: weight=%g admitted=%d rejected_quota=%d rejected_queue=%d shed=%d infeasible=%d weighted_log_gain=%.6f\n",
						row.Name, w, b, row.Weight, row.Admitted, row.RejectedQuota,
						row.RejectedQueue, row.Shed, row.Infeasible, row.WeightedLogGain)
				}
			}
			if cfg.chaos.Enabled {
				fmt.Printf("chaos workers=%d batchers=%d: events=%d destroyed=%d reaug attempted=%d restored=%d degraded=%d lost=%d pending=%d\n",
					w, b, res.NodeEvents, res.InstancesDestroyed, res.ReaugAttempted,
					res.ReaugRestored, res.ReaugDegraded, res.ReaugLost, svc.ReaugPending())
				// The self-healing contract: every placement still below its
				// expectation must carry an active alert — no silent violations.
				if silent := svc.SilentViolations(); len(silent) > 0 {
					fmt.Fprintf(os.Stderr, "augmentd: selftest workers=%d batchers=%d: %d SILENT SLO violations (sessions %v)\n", w, b, len(silent), silent)
					ok = false
				}
			}
			hash, placed := svc.State().Hash(), svc.State().PlacedCount()
			downLive := fmt.Sprint(svc.State().DownNodes())
			if dir != "" {
				// Kill/restore contract, in-process: replaying the run's WAL
				// against a same-seed network reproduces the exact state —
				// including which cloudlets were down at the cut.
				st, err := serve.NewStateFromWAL(cfg.buildNetwork(), dir)
				switch {
				case err != nil:
					fmt.Fprintf(os.Stderr, "augmentd: selftest workers=%d batchers=%d: WAL replay: %v\n", w, b, err)
					ok = false
				case st.Hash() != hash || st.PlacedCount() != placed:
					fmt.Fprintf(os.Stderr, "augmentd: selftest workers=%d batchers=%d: WAL replay state hash=%016x placed=%d, live hash=%016x placed=%d\n",
						w, b, st.Hash(), st.PlacedCount(), hash, placed)
					ok = false
				case fmt.Sprint(st.DownNodes()) != downLive:
					fmt.Fprintf(os.Stderr, "augmentd: selftest workers=%d batchers=%d: WAL replay down set %v, live %s\n",
						w, b, st.DownNodes(), downLive)
					ok = false
				}
			}
			log := res.PlacementLog()
			if len(runs) == 0 {
				refLog = log
				refChaos = res.ChaosLog()
			} else if log != refLog {
				fmt.Fprintf(os.Stderr, "augmentd: selftest DETERMINISM FAILURE: workers=%d batchers=%d placement log differs from workers=%d batchers=%d\n%s",
					w, b, runs[0].workers, runs[0].batchers, firstDiff(refLog, log))
				ok = false
			} else if cl := res.ChaosLog(); cl != refChaos {
				fmt.Fprintf(os.Stderr, "augmentd: selftest DETERMINISM FAILURE: workers=%d batchers=%d chaos log differs from workers=%d batchers=%d\n%s",
					w, b, runs[0].workers, runs[0].batchers, firstDiff(refChaos, cl))
				ok = false
			}
			runs = append(runs, comboRun{workers: w, batchers: b, result: res})
			if err := svc.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "augmentd: selftest close: %v\n", err)
				ok = false
			}
			if cfg.kill {
				if !ok {
					fmt.Println("selftest FAILED")
					return 1
				}
				fmt.Printf("selftest state: hash=%016x placed=%d\n", hash, placed)
				os.Stdout.Sync()
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	if !ok {
		fmt.Println("selftest FAILED")
		return 1
	}
	printScaling(runs)
	if cfg.chaos.Enabled {
		r := runs[0].result
		fmt.Printf("chaos drill OK: %d node events, reaug attempted=%d restored=%d degraded=%d lost=%d, zero silent violations\n",
			r.NodeEvents, r.ReaugAttempted, r.ReaugRestored, r.ReaugDegraded, r.ReaugLost)
	}
	fmt.Printf("selftest OK: %d combinations agree on %d placements\n", len(runs), runs[0].result.Admitted)
	return 0
}

// latencyQuantiles computes the exact p50/p99/p999 of the answered requests'
// end-to-end latencies through an armed obs histogram reservoir (capacity
// 1<<15 retains every sample a selftest run produces, so the printed
// quantiles are exact order statistics rather than bucket interpolations).
func latencyQuantiles(records []loadgen.Record) (p50, p99, p999 time.Duration) {
	h := obs.NewRegistry().Histogram("selftest_latency_seconds", obs.DurationBuckets)
	h.Sample(1 << 15)
	n := 0
	for _, r := range records {
		if r.Latency > 0 {
			h.Observe(r.Latency.Seconds())
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	toDur := func(p float64) time.Duration { return time.Duration(h.Quantile(p) * float64(time.Second)) }
	return toDur(0.5), toDur(0.99), toDur(0.999)
}

// replayConfig gathers everything runReplay needs from the flag set.
type replayConfig struct {
	newService  func(workers, batchers int, walDir string, restore bool, recordPath string) *serve.Service
	path        string
	workerSpec  string
	batcherSpec string
	wave        int
	queueDepth  int
	seed        int64
	solverName  string
	hopBound    int
	admitPolicy string
	admission   string
	tenants     string // canonical tenant-spec string (serve.NormalizedTenants)
}

// runReplay drives a recorded request trace through fresh services at every
// (workers, batchers) combination and pins bit-identity: each combination
// must reproduce the trace's EOF state hash and placement count, and all
// combinations must agree on the full placement log. Returns the process
// exit code.
func runReplay(cfg replayConfig) int {
	meta, ops, eof, err := serve.ReadTrace(cfg.path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: -replay: %v\n", err)
		return 1
	}
	// The trace header pins the recording run's determinism inputs; replaying
	// under different ones cannot reproduce it, so fail fast instead of
	// reporting a confusing divergence.
	switch {
	case meta.Seed != cfg.seed:
		fmt.Fprintf(os.Stderr, "augmentd: -replay: trace was recorded with -seed %d, not %d\n", meta.Seed, cfg.seed)
		return 2
	case meta.Solver != cfg.solverName:
		fmt.Fprintf(os.Stderr, "augmentd: -replay: trace was recorded with solver %q, not %q\n", meta.Solver, cfg.solverName)
		return 2
	case meta.HopBound != cfg.hopBound:
		fmt.Fprintf(os.Stderr, "augmentd: -replay: trace was recorded with -l %d, not %d\n", meta.HopBound, cfg.hopBound)
		return 2
	case meta.AdmitPolicy != cfg.admitPolicy:
		fmt.Fprintf(os.Stderr, "augmentd: -replay: trace was recorded with -admit %s, not %s\n", meta.AdmitPolicy, cfg.admitPolicy)
		return 2
	// Quota and fair-queueing decisions are part of the admission sequence a
	// replay must reproduce, so the discipline and tenant set are pinned too.
	// Pre-tenant traces omit both fields; they replay under any setting.
	case meta.Admission != "" && meta.Admission != cfg.admission:
		fmt.Fprintf(os.Stderr, "augmentd: -replay: trace was recorded with -admission %s, not %s\n", meta.Admission, cfg.admission)
		return 2
	case meta.Tenants != "" && meta.Tenants != cfg.tenants:
		fmt.Fprintf(os.Stderr, "augmentd: -replay: trace was recorded with tenants %q, not %q\n", meta.Tenants, cfg.tenants)
		return 2
	}
	workerCounts, err := parseCounts(cfg.workerSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: bad -selftest-workers %q\n", cfg.workerSpec)
		return 2
	}
	batcherCounts, err := parseCounts(cfg.batcherSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "augmentd: bad -selftest-batchers %q\n", cfg.batcherSpec)
		return 2
	}
	wave := cfg.wave
	if wave <= 0 {
		wave = cfg.queueDepth
	}
	augments := 0
	for _, op := range ops {
		if op.Op == serve.OpAugment {
			augments++
		}
	}
	fmt.Printf("replaying %s: %d ops (%d augments), recorded", cfg.path, len(ops), augments)
	if eof != nil {
		fmt.Printf(" hash=%s placed=%d", eof.Hash, eof.Placed)
	} else {
		fmt.Print(" without EOF trailer (recording was cut short; state check skipped)")
	}
	fmt.Println()

	var refLog string
	var runs []comboRun
	ok := true
	for _, w := range workerCounts {
		for _, b := range batcherCounts {
			svc := cfg.newService(w, b, "", false, "")
			res, err := loadgen.Replay(svc, ops, loadgen.ReplayConfig{WaveSize: wave})
			if err != nil {
				fmt.Fprintf(os.Stderr, "augmentd: replay workers=%d batchers=%d: %v\n", w, b, err)
				return 1
			}
			svc.Drain()
			hash, placed := svc.State().Hash(), svc.State().PlacedCount()
			p50, p99, p999 := latencyQuantiles(res.Records)
			fmt.Printf("replay workers=%d batchers=%d: %d ops in %v (%.0f req/s), admitted=%d infeasible=%d rejected=%d released=%d hash=%016x placed=%d p50=%v p99=%v p999=%v\n",
				w, b, len(ops), res.Elapsed.Round(time.Millisecond), res.Throughput,
				res.Admitted, res.Infeasible, res.Rejected, res.Released, hash, placed,
				p50.Round(time.Microsecond), p99.Round(time.Microsecond), p999.Round(time.Microsecond))
			if eof != nil {
				if got := fmt.Sprintf("%016x", hash); got != eof.Hash || placed != eof.Placed {
					fmt.Fprintf(os.Stderr, "augmentd: replay DIVERGENCE workers=%d batchers=%d: hash=%s placed=%d, recorded hash=%s placed=%d\n",
						w, b, got, placed, eof.Hash, eof.Placed)
					ok = false
				}
			}
			log := res.PlacementLog()
			if len(runs) == 0 {
				refLog = log
			} else if log != refLog {
				fmt.Fprintf(os.Stderr, "augmentd: replay DETERMINISM FAILURE: workers=%d batchers=%d placement log differs from workers=%d batchers=%d\n%s",
					w, b, runs[0].workers, runs[0].batchers, firstDiff(refLog, log))
				ok = false
			}
			runs = append(runs, comboRun{workers: w, batchers: b, result: res})
			if err := svc.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "augmentd: replay close: %v\n", err)
				ok = false
			}
		}
	}
	if !ok {
		fmt.Println("replay FAILED")
		return 1
	}
	fmt.Printf("replay OK: %d combinations reproduced %d placements bit-identically\n", len(runs), runs[0].result.Admitted)
	return 0
}

// printScaling reports batch-throughput scaling per worker count: the
// highest batcher count's throughput relative to one batcher's.
func printScaling(runs []comboRun) {
	base := make(map[int]*comboRun)
	best := make(map[int]*comboRun)
	for i := range runs {
		r := &runs[i]
		if r.batchers == 1 {
			base[r.workers] = r
		}
		if b, ok := best[r.workers]; !ok || r.batchers > b.batchers {
			best[r.workers] = r
		}
	}
	for _, r := range runs {
		if r.batchers != 1 {
			continue
		}
		b, ok := best[r.workers]
		if !ok || b.batchers == 1 || r.result.Throughput == 0 {
			continue
		}
		fmt.Printf("batcher scaling workers=%d: %d batchers = %.2fx vs 1 (%.0f vs %.0f req/s)\n",
			r.workers, b.batchers, b.result.Throughput/r.result.Throughput,
			b.result.Throughput, r.result.Throughput)
	}
}

// parseCounts parses a comma-separated list of positive ints.
func parseCounts(spec string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad count %q", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty count list")
	}
	return out, nil
}

// firstDiff renders the first differing line of two placement logs.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("  line %d:\n  - %s\n  + %s\n", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("  log lengths differ: %d vs %d lines\n", len(al), len(bl))
}
