// Package engine is the deterministic parallel trial executor underneath the
// experiment harness. A run fans n independent trials out across a bounded
// worker pool; determinism is preserved by construction rather than by luck:
//
//   - every trial gets its own *rand.Rand seeded by a pure function of the
//     trial index, so no trial ever observes another trial's draws;
//   - results are collected into a slice indexed by trial, so the output
//     order is the trial order regardless of completion order;
//   - worker count only changes scheduling, never seeding, so a run with
//     workers=1 and workers=GOMAXPROCS is bit-identical.
//
// Trial functions must be pure with respect to shared state (build their own
// network, request, instance from the rng) — the executor enforces nothing
// beyond the seeding discipline, but `make test-race` runs the harness under
// the race detector to keep violations from creeping in.
//
// Every run records trial counts, per-trial durations, feeder queue wait,
// and per-worker utilization into the default obs registry. All recording
// happens in the pool machinery — outside the seeded trial function — and
// never feeds back into scheduling or seeding, so instrumented runs stay
// bit-identical (see DESIGN.md).
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Seeder derives the RNG seed for one trial. It must be a pure function of
// the trial index (the experiment harness uses
// Seed*1_000_003 + pointIdx*10_007 + trial).
type Seeder func(trial int) int64

// TrialFunc runs one trial. rng is freshly seeded for this trial and must
// not escape the call.
type TrialFunc[T any] func(trial int, rng *rand.Rand) (T, error)

// metrics are the engine's obs instruments, resolved once at package init.
var metrics = struct {
	trials     *obs.Counter
	errors     *obs.Counter
	runs       *obs.Counter
	trialDur   *obs.Histogram // wall-clock of one trial function call
	queueWait  *obs.Histogram // feeder blocking time per trial (all workers busy)
	workerUtil *obs.Histogram // per-worker busy/lifetime ratio per run
}{
	trials:     obs.Default().Counter("engine_trials_total"),
	errors:     obs.Default().Counter("engine_trial_errors_total"),
	runs:       obs.Default().Counter("engine_runs_total"),
	trialDur:   obs.Default().Histogram("engine_trial_duration_seconds", obs.DurationBuckets),
	queueWait:  obs.Default().Histogram("engine_queue_wait_seconds", obs.DurationBuckets),
	workerUtil: obs.Default().Histogram("engine_worker_utilization_ratio", obs.RatioBuckets),
}

// Run executes fn for trials 0..n-1 across a pool of workers and returns the
// results in trial order. workers <= 0 uses GOMAXPROCS; seed == nil seeds
// each trial with its index. On the first trial error the pool stops handing
// out new trials and Run returns the error of the lowest-index failed trial,
// wrapped with that index. A canceled ctx aborts between trials and returns
// ctx's error.
func Run[T any](ctx context.Context, n, workers int, seed Seeder, fn TrialFunc[T]) ([]T, error) {
	return RunTagged(ctx, "", n, workers, seed, fn)
}

// RunTagged is Run with a caller-supplied context tag — typically the
// experiment point and solver set from the run manifest — woven into trial
// errors and failure logs, so a batch failure is attributable to its exact
// sweep point from the logs alone.
func RunTagged[T any](ctx context.Context, tag string, n, workers int, seed Seeder, fn TrialFunc[T]) ([]T, error) {
	if fn == nil {
		panic("engine: Run requires a trial function")
	}
	if n <= 0 {
		return nil, nil
	}
	if seed == nil {
		seed = indexSeed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// results[t] and errs[t] are each written by exactly one worker (the one
	// that drew trial t) and read only after the pool returns — no locks
	// needed.
	results := make([]T, n)
	errs := make([]error, n)
	runPool(ctx, n, workers, func(t int) {
		res, err := fn(t, rand.New(rand.NewSource(seed(t))))
		if err != nil {
			metrics.errors.Inc()
			slog.Error("engine: trial failed",
				"tag", tag, "trial", t, "seed", seed(t), "err", err)
			errs[t] = err
			cancel() // stop feeding; in-flight trials finish
			return
		}
		results[t] = res
	})

	for t, err := range errs {
		if err != nil {
			if tag != "" {
				return nil, fmt.Errorf("engine: %s: trial %d: %w", tag, t, err)
			}
			return nil, fmt.Errorf("engine: trial %d: %w", t, err)
		}
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// indexSeed is the default Seeder: each trial is seeded with its index.
func indexSeed(trial int) int64 { return int64(trial) }

// runPool is the one feeder/worker pool under Run and RunPartial: it calls
// trial(t) for t = 0..n-1 on up to workers goroutines (<= 0: GOMAXPROCS)
// and returns when every started trial has finished. A canceled ctx stops
// the feeder between trials; in-flight trials finish. trial must confine its
// writes to slots indexed by t. Run, trial and utilization metrics are
// recorded here, outside the seeded trial function.
func runPool(ctx context.Context, n, workers int, trial func(t int)) {
	metrics.runs.Inc()
	timed := func(t int) time.Duration {
		start := time.Now()
		trial(t)
		d := time.Since(start)
		metrics.trialDur.Observe(d.Seconds())
		metrics.trials.Inc()
		return d
	}
	// A single trial runs inline instead of paying a worker goroutine, feed
	// channel and WaitGroup per call: micro-batch serving hits this shape on
	// every one-request batch, and the result is the same seeded computation.
	if n == 1 {
		timed(0)
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	trials := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			born := time.Now()
			var busy time.Duration
			defer func() {
				// Worker utilization: the busy fraction of this worker's
				// lifetime. Near 1.0 means the pool is compute-bound; low
				// values mean trials are starved behind the feeder.
				if life := time.Since(born); life > 0 {
					metrics.workerUtil.Observe(float64(busy) / float64(life))
				}
				wg.Done()
			}()
			for t := range trials {
				busy += timed(t)
			}
		}()
	}
feed:
	for t := 0; t < n; t++ {
		waitStart := time.Now()
		select {
		case trials <- t:
			metrics.queueWait.Observe(time.Since(waitStart).Seconds())
		case <-ctx.Done():
			break feed
		}
	}
	close(trials)
	wg.Wait()
}
