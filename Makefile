# Convenience targets for the SFC reliability-augmentation reproduction.

GO ?= go

.PHONY: all build vet fmt-check doc-check smoke-drivers check test test-race test-determinism test-failsoft test-log fuzz bench bench-lp experiments figures clean

all: build check test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file needs gofmt (prints the offending paths).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Every exported identifier in every package must carry a doc comment, every
# command's package doc and registered flags must name each other, and every
# flag must be set for its own command by a recipe here that runs it, a file
# under bench/ (augmentd and experiments), or a row of API.md's knob census
# (stdlib-only AST linter, see cmd/doccheck).
doc-check:
	$(GO) run ./cmd/doccheck $(shell find ./internal ./cmd -type d | sort)

# The offline driver over the serving stack, through its main paths: the
# churn simulator with cloudlet faults, as a rate sweep, and as batch
# admission of one stream in each of the three arrival orders (dessim exits 1
# when a run's ledger does not return to its initial state once every session
# is released). The fault run's stderr is the service's watchdog alerting
# every crash; only the exit status counts. A budgeted-ILP chain exercises the
# degrading fallback, in the simulator and on one request of sfcaugment
# (max-reliability primaries, half the capacity, two hops); the topology
# generator renders one sampled graph, and the Theorem 5.2 check runs through
# the figures' trial harness. The overload drill replays one 10x-overload
# request stream through fifo, fair and knapsack admission and fails unless
# knapsack >= fair >= fifo holds on tenant-weighted log-gain. The five
# examples run to completion (three of them call the exact solver); only
# their exit status counts.
smoke-drivers:
	$(GO) run ./cmd/dessim -faults -mean-up 60 -mean-down 8 -horizon 60 -warmup 5 -log-level error 2>/dev/null
	$(GO) run ./cmd/dessim -sweep -horizon 60 -warmup 5 -log-level error
	$(GO) run ./cmd/dessim -solver "ILP@50ms,Heuristic,Greedy" -horizon 40 -warmup 5 -log-level error
	$(GO) run ./cmd/dessim -order all -hold inf -horizon 60 -warmup 0 -log-level error
	$(GO) run ./cmd/dessim -overload -log-level warn
	$(GO) run ./cmd/sfcaugment -sfc 4 -rho 0.999 -l 2 -residual 0.5 -admit maxrel \
		-fallback "ILP@50ms,Heuristic,Greedy" -log-level error >/dev/null
	$(GO) run ./cmd/topogen -model er -n 30 -p 0.1 -format dot >/dev/null
	$(GO) run ./cmd/experiments -fig theorem -trials 4 -q >/dev/null
	$(GO) run ./examples/quickstart >/dev/null
	$(GO) run ./examples/videostream >/dev/null
	$(GO) run ./examples/capacityplan >/dev/null
	$(GO) run ./examples/failover >/dev/null
	$(GO) run ./examples/iotfleet >/dev/null

# Static checks + the offline drivers + vet and unit tests of the benchmark
# harness (bench/ is a module of its own, so `go vet ./...` and `go test
# ./...` do not reach it, yet it compiles against engine and core). The
# serving layer's determinism, kill/restore, record/replay and chaos checks
# are tests of internal/serve/loadgen, so `make test` runs them.
check: vet fmt-check doc-check smoke-drivers
	$(GO) vet -C bench ./...
	$(GO) test -C bench .

test:
	$(GO) test ./...

# Race-detector pass over the concurrent paths (the trial engine, every
# harness built on it, the root-package benchmarks' shared pools, and the
# serving layer). The extra serve pass repeats the commit/release races with
# -count=2 so the scheduler reshuffles interleavings, and the last line
# hammers the tests whose readers share published epochs, placement records
# included, without a lock.
test-race: test-determinism
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/serve/...
	$(GO) test -race -count=20 -run 'TestReadersSeeOneVersion|TestCheckpointNeverSeesHalfARelease|TestConcurrentReleaseRacingBatchCommit|TestEpochHashUnderConcurrentReaders|TestReleaseRacingRepairInstallsNothing' ./internal/serve/

# The determinism bar, hammered: the worker × batcher, record/replay, chaos
# and tenant-admission bit-identity tests and the committed-trace replays 50
# times over, plain and under the race detector. Batch composition is a function of the submission log and
# its wave boundaries, so a single failure here is a bug, never a flake. The
# figure sweeps' bar — one trial list, any worker count, per-point seeds,
# and the Theorem 5.2 check pinned to its golden — rides along ten times over.
DETERMINISM_TESTS = TestBatcherCountDeterminism|TestChaosDeterminismAcrossBatchers|TestRepairInPlaceAcrossCombinations|TestDeterministicAcrossWorkerCounts|TestRunIsReproducible|TestChaosDeterministicRuns|TestRecordReplayRoundTrip|TestRecordReplayChaosRoundTrip|TestTenantAdmissionDeterminism|TestCommittedTracesReplay
SWEEP_DETERMINISM_TESTS = TestRunPointWorkerCountDeterminism|TestSweepWorkerCountDeterminism|TestSweepIsOneTrialListWithPerPointSeeds|TestTheoremGolden|TestTheoremWorkerCountDeterminism
test-determinism:
	$(GO) test -count=50 -run '$(DETERMINISM_TESTS)' ./internal/serve/ ./internal/serve/loadgen/
	$(GO) test -race -count=50 -run '$(DETERMINISM_TESTS)' ./internal/serve/ ./internal/serve/loadgen/
	$(GO) test -count=10 -run '$(SWEEP_DETERMINISM_TESTS)' ./internal/experiments/
	$(GO) test -race -count=10 -run '$(SWEEP_DETERMINISM_TESTS)' ./internal/experiments/

# Resilience-layer tests under the race detector: the fail-soft engine
# (panic and error recovery, seeded drops), the solver fallback chains and
# their stage budgets, the serving layer's per-request deadline, and the
# fault-injected DES driver.
test-failsoft:
	$(GO) test -race -run 'Partial|Fallback|Fault|Exhaustion|Budget|Deadline' \
		./internal/engine/ ./internal/core/ ./internal/des/ ./internal/serve/

# Short fuzzing pass over the fallback chain, the count branch-and-bound, the
# pack oracle (greedy pass and search alone) and the Hungarian matching (with
# Matcher reuse) against exhaustive enumeration, the flow relaxation's mask
# search against its scan reference (two-word masks), the count tree's box
# bound against the relaxation it stands in for, the matching's group
# form against its edge form, and the four readers of hostile input: tenant
# specs, request traces, POST bodies and WAL directories (the seed corpora —
# pinned under each package's testdata/fuzz or added in the target — always
# run as part of plain `go test`). The trace and WAL targets are seeded with
# whole recordings, so they bound the minimization of each new input, which
# would otherwise take the run.
fuzz:
	$(GO) test -run FuzzFallbackChain -fuzz FuzzFallbackChain -fuzztime 15s ./internal/core/
	$(GO) test -run FuzzCountBBMatchesBrute -fuzz FuzzCountBBMatchesBrute -fuzztime 15s ./internal/core/
	$(GO) test -run FuzzPackMatchesBrute -fuzz FuzzPackMatchesBrute -fuzztime 15s ./internal/core/
	$(GO) test -run FuzzFlowRelaxMatchesReference -fuzz FuzzFlowRelaxMatchesReference -fuzztime 15s ./internal/core/
	$(GO) test -run FuzzBoxBoundHolds -fuzz FuzzBoxBoundHolds -fuzztime 15s ./internal/core/
	$(GO) test -run FuzzMinCostMaxMatchesBrute -fuzz FuzzMinCostMaxMatchesBrute -fuzztime 15s ./internal/matching/
	$(GO) test -run FuzzSolveGroupsMatchesSolve -fuzz FuzzSolveGroupsMatchesSolve -fuzztime 15s ./internal/matching/
	$(GO) test -run FuzzParseTenants -fuzz FuzzParseTenants -fuzztime 15s ./internal/admission/
	$(GO) test -run FuzzReadTraceReplay -fuzz FuzzReadTraceReplay -fuzztime 15s -fuzzminimizetime 1s ./internal/serve/loadgen/
	$(GO) test -run FuzzDecodeBody -fuzz FuzzDecodeBody -fuzztime 15s ./internal/serve/
	$(GO) test -run FuzzWALReplay -fuzz FuzzWALReplay -fuzztime 15s -fuzzminimizetime 1s ./internal/serve/

# Full test log, as referenced by EXPERIMENTS.md.
test-log:
	@mkdir -p results
	$(GO) test ./... 2>&1 | tee results/test_output.txt

# The repo's benchmark (contract in BENCHMARK.json, harness, metric catalog
# and seed baseline under bench/): five workloads end to end and layer by
# layer. Compare two result files with `bash bench/run.sh -compare old new`.
bench:
	bash bench/run.sh

# Solver-only micro-benchmark loop for iterating on internal/lp and core's
# branch and bound: the cold simplex (SimplexAssignmentLP; there is no
# warm-start path), the Fig1 solver family, the hard Fig. 1 count trees
# (CountBBHard, with nodes/op so a changed search shows), one served ILP
# request of the wire-solver shape (ServeILPSolve, allocs and nodes/op), one
# default serving solve of the wire-default shape (ServeFailsafeSolve, the
# Failsafe chain whose allocs/op TestServeFailsafeAllocs holds),
# core.NewInstance on a default request and on inproc-waves- and
# wire-solver-shaped requests (InstanceConstruction, allocs/op), the
# Hungarian matching (HungarianMatching: Groups and Edges replay the
# Heuristic seed's rounds on the wire-solver pool in each form), and the pack
# oracle alone on the hard count trees' queries (PackHard: how many each
# stage settles), without the serve harness or -count repetition.
bench-lp:
	$(GO) test -bench 'SimplexAssignmentLP|Fig1|CountBBHard|ServeILPSolve|ServeFailsafeSolve|InstanceConstruction|Hungarian' -benchmem .
	$(GO) test -run '^$$' -bench PackHard ./internal/core

# Reproduce every figure and ablation at the paper's trial count (slow).
experiments:
	$(GO) run ./cmd/experiments -fig all -trials 1000 -csvdir results

# Faster pass with tables, CSVs and SVG charts.
figures:
	$(GO) run ./cmd/experiments -fig all -trials 100 -csvdir results -svgdir results/svg

# Remove generated artifacts only; the committed tables under results/
# (results/*.csv, results/*.txt, results/svg) stay.
clean:
	rm -rf results/test_output.txt test_output.txt .bench_build
