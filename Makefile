# Convenience targets for the SFC reliability-augmentation reproduction.

GO ?= go

.PHONY: all build vet fmt-check doc-check smoke-serve smoke-recover smoke-replay smoke-chaos smoke-tenants smoke-drivers check test test-race test-determinism test-failsoft test-log fuzz bench bench-lp experiments figures clean

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

# Build the augmentation server and run its deterministic selftest: the
# in-process load generator replays one request stream at 1 and 8 solver
# workers and the placements must agree bit-for-bit with zero drops. Two more
# passes hold the same bar under the paper's other primary-placement policy
# (max-reliability admission beside §7.1's random primaries) and under an
# ad-hoc fallback chain headed by the exact solver.
smoke-serve:
	$(GO) build ./cmd/augmentd
	$(GO) run ./cmd/augmentd -selftest -requests 128 -selftest-workers 1,8 -residual 1.0 -log-level warn
	$(GO) run ./cmd/augmentd -selftest -requests 64 -selftest-workers 1,8 -admit maxrel -residual 1.0 -log-level warn
	$(GO) run ./cmd/augmentd -selftest -requests 64 -selftest-workers 1,8 -solver "ILP,Heuristic,Greedy" \
		-residual 1.0 -log-level warn

# Kill/restore durability check: one selftest pass prints its durable state
# line and SIGKILLs itself mid-process; a fresh process then boots from the
# surviving WAL and must print the identical state hash and placement count.
smoke-recover:
	@$(GO) build -o augmentd.smoke ./cmd/augmentd
	@rm -rf smoke_wal
	@./augmentd.smoke -selftest -kill -requests 128 -selftest-workers 1 -selftest-batchers 4 \
		-wal-dir smoke_wal -residual 1.0 -log-level warn | tee smoke_kill.txt
	@./augmentd.smoke -restore-only -wal-dir smoke_wal -residual 1.0 -log-level warn | tee smoke_restore.txt
	@k="$$(grep -o 'hash=[0-9a-f]* placed=[0-9]*' smoke_kill.txt | head -n 1)"; \
	r="$$(grep -o 'hash=[0-9a-f]* placed=[0-9]*' smoke_restore.txt | head -n 1)"; \
	if [ -z "$$k" ] || [ "$$k" != "$$r" ]; then \
		echo "smoke-recover FAILED: killed [$$k] restored [$$r]"; exit 1; \
	fi; echo "smoke-recover OK: $$k"
	@rm -rf smoke_wal smoke_kill.txt smoke_restore.txt augmentd.smoke

# Record/replay determinism check: one selftest pass records its request
# trace, then fresh services at every worker × batcher combination replay it
# and must reproduce the recorded run's final state hash and per-request
# placements bit-identically (verified against the trace's EOF trailer). The
# recording runs in the roomy regime (capacities ×500), where every request
# places, so the trace pins 128 placements rather than the handful the
# saturated default network admits.
smoke-replay:
	@$(GO) build -o augmentd.replay ./cmd/augmentd
	@rm -f smoke_replay.trace
	@./augmentd.replay -selftest -requests 128 -selftest-workers 1 -selftest-batchers 1 \
		-record smoke_replay.trace -capacity-scale 500 -residual 1.0 -log-level warn
	@./augmentd.replay -replay smoke_replay.trace -selftest-workers 1,8 -selftest-batchers 1,4 \
		-capacity-scale 500 -residual 1.0 -log-level warn
	@rm -f smoke_replay.trace augmentd.replay

# Chaos drill: the selftest injects deterministic node outages (seeded
# MTBF/MTTR renewal schedule) between waves; the watchdog destroys hosted
# instances, raises alerts, and proactively re-augments every failed session.
# The run must agree bit-for-bit — placement log AND chaos log — across every
# worker × batcher combination, end with zero silent SLO violations, and its
# WAL replay must reproduce the final state including the down set. A second
# pass records the drill's trace (node transitions, reaug releases and sync
# re-admissions included) and replays it at other combinations.
smoke-chaos:
	@$(GO) build -o augmentd.chaos ./cmd/augmentd
	@rm -rf chaos_wal chaos.trace
	@./augmentd.chaos -selftest -chaos -chaos-mtbf 3 -chaos-mttr 2 -chaos-degraded 0.25 \
		-requests 96 -release-every 8 -selftest-workers 1,8 -selftest-batchers 1,4 \
		-wal-dir chaos_wal -residual 1.0 -log-level error 2>/dev/null
	@./augmentd.chaos -selftest -chaos -chaos-mtbf 3 -chaos-mttr 2 -chaos-degraded 0.25 \
		-requests 96 -release-every 8 -selftest-workers 1 -selftest-batchers 1 \
		-record chaos.trace -residual 1.0 -log-level error 2>/dev/null
	@./augmentd.chaos -replay chaos.trace -selftest-workers 1,8 -selftest-batchers 1,4 \
		-residual 1.0 -log-level error 2>/dev/null
	@rm -rf chaos_wal chaos.trace augmentd.chaos

# Multi-tenant admission-economics smoke: the augmentd selftest runs a
# two-tenant mix under fair queueing at 1 and 8 workers (placements AND
# queue decisions must agree bit-for-bit), then the dessim overload drill
# replays one 10x-overload request stream through fifo, fair, and knapsack
# admission and fails unless knapsack >= fair >= fifo holds on
# tenant-weighted log-gain.
smoke-tenants:
	$(GO) run ./cmd/augmentd -selftest -requests 96 -selftest-workers 1,8 \
		-tenants "gold:weight=4;free:weight=1,rate=2,burst=6" -admission fair \
		-tenant-mix "free:0.7,gold:0.3" -residual 1.0 \
		-alert-warn 0.000001 -alert-crit 0.000001 -log-level warn
	$(GO) run ./cmd/dessim -overload -log-level warn

# The offline driver over the serving stack, through its main paths: the
# churn simulator with cloudlet faults, as a rate sweep, and as batch
# admission of one stream in each of the three arrival orders (dessim exits 1
# when a run's ledger does not return to its initial state once every session
# is released). The fault run's stderr is the service's watchdog alerting
# every crash; only the exit status counts. A budgeted-ILP chain exercises the
# degrading fallback, in the simulator and on one request of sfcaugment
# (max-reliability primaries, half the capacity, two hops); the topology
# generator renders one sampled graph, and the Theorem 5.2 check runs through
# the figures' trial harness. The five examples run to completion (three of
# them call the exact solver); only their exit status counts.
smoke-drivers:
	$(GO) run ./cmd/dessim -faults -mean-up 60 -mean-down 8 -horizon 60 -warmup 5 -log-level error 2>/dev/null
	$(GO) run ./cmd/dessim -sweep -horizon 60 -warmup 5 -log-level error
	$(GO) run ./cmd/dessim -solver "ILP@50ms,Heuristic,Greedy" -horizon 40 -warmup 5 -log-level error
	$(GO) run ./cmd/dessim -order all -hold inf -horizon 60 -warmup 0 -log-level error
	$(GO) run ./cmd/sfcaugment -sfc 4 -rho 0.999 -l 2 -residual 0.5 -admit maxrel \
		-fallback "ILP@50ms,Heuristic,Greedy" -log-level error >/dev/null
	$(GO) run ./cmd/topogen -model er -n 30 -p 0.1 -format dot >/dev/null
	$(GO) run ./cmd/experiments -fig theorem -trials 4 -q >/dev/null
	$(GO) run ./examples/quickstart >/dev/null
	$(GO) run ./examples/videostream >/dev/null
	$(GO) run ./examples/capacityplan >/dev/null
	$(GO) run ./examples/failover >/dev/null
	$(GO) run ./examples/iotfleet >/dev/null

# Static checks + the serving smoke test + the kill/restore check + the
# record/replay determinism check + the chaos self-healing drill + the
# admission-economics smoke + the offline drivers + vet and unit tests of the
# benchmark harness (bench/ is a module of its own, so `go vet ./...` and
# `go test ./...` do not reach it, yet it compiles against engine and core).
check: vet fmt-check doc-check smoke-serve smoke-recover smoke-replay smoke-chaos smoke-tenants smoke-drivers
	$(GO) vet -C bench ./...
	$(GO) test -C bench .

test:
	$(GO) test ./...

# Race-detector pass over the concurrent paths (the trial engine, every
# harness built on it, the root-package benchmarks' shared pools, and the
# serving layer). The extra serve pass repeats the commit/release races with
# -count=2 so the scheduler reshuffles interleavings.
test-race: test-determinism
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/serve/...

# The determinism bar, hammered: the worker × batcher, record/replay, chaos
# and tenant-admission bit-identity tests 50 times over, plain and under the
# race detector. Batch composition is a function of the submission log and
# its wave boundaries, so a single failure here is a bug, never a flake. The
# figure sweeps' bar — one trial list, any worker count, per-point seeds,
# and the Theorem 5.2 check pinned to its golden — rides along ten times over.
DETERMINISM_TESTS = TestBatcherCountDeterminism|TestChaosDeterminismAcrossBatchers|TestDeterministicAcrossWorkerCounts|TestRunIsReproducible|TestChaosDeterministicRuns|TestRecordReplayRoundTrip|TestRecordReplayChaosRoundTrip|TestTenantAdmissionDeterminism
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
# Matcher reuse) against exhaustive enumeration, and the matching's group
# form against its edge form (the pinned seed corpora under each package's
# testdata/fuzz always run as part of plain `go test`).
fuzz:
	$(GO) test -run FuzzFallbackChain -fuzz FuzzFallbackChain -fuzztime 15s ./internal/core/
	$(GO) test -run FuzzCountBBMatchesBrute -fuzz FuzzCountBBMatchesBrute -fuzztime 15s ./internal/core/
	$(GO) test -run FuzzPackMatchesBrute -fuzz FuzzPackMatchesBrute -fuzztime 15s ./internal/core/
	$(GO) test -run FuzzMinCostMaxMatchesBrute -fuzz FuzzMinCostMaxMatchesBrute -fuzztime 15s ./internal/matching/
	$(GO) test -run FuzzSolveGroupsMatchesSolve -fuzz FuzzSolveGroupsMatchesSolve -fuzztime 15s ./internal/matching/

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
# request of the wire-solver shape (ServeILPSolve, allocs and nodes/op),
# core.NewInstance on a default request and on inproc-waves- and
# wire-solver-shaped requests (InstanceConstruction, allocs/op), the
# Hungarian matching (HungarianMatching: Groups and Edges replay the
# Heuristic seed's rounds on the wire-solver pool in each form), without
# the serve harness or -count repetition.
bench-lp:
	$(GO) test -bench 'SimplexAssignmentLP|Fig1|CountBBHard|ServeILPSolve|InstanceConstruction|Hungarian' -benchmem .

# Reproduce every figure and ablation at the paper's trial count (slow).
experiments:
	$(GO) run ./cmd/experiments -fig all -trials 1000 -csvdir results

# Faster pass with tables, CSVs and SVG charts.
figures:
	$(GO) run ./cmd/experiments -fig all -trials 100 -csvdir results -svgdir results/svg

# Remove generated artifacts only; the committed tables under results/
# (results/*.csv, results/*.txt, results/svg) stay.
clean:
	rm -rf results/test_output.txt test_output.txt .bench_build augmentd \
		smoke_wal smoke_kill.txt smoke_restore.txt augmentd.smoke \
		smoke_replay.trace augmentd.replay \
		chaos_wal chaos.trace augmentd.chaos
