package engine

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime/debug"

	"repro/internal/obs"
)

// TrialError records one trial RunPartial could not complete. Failed trials
// leave the zero value in the results slice; the error list identifies them.
type TrialError struct {
	// Trial is the trial index within the run.
	Trial int
	// Seed is the RNG seed the trial ran with.
	Seed int64
	// Kind classifies the failure: "error" (trial function returned an
	// error) or "panic" (recovered).
	Kind string
	// Err is the trial's error (for panics, one carrying the stack).
	Err error
}

// Error renders the trial index, failure kind, and seed — everything needed
// to replay the failing trial deterministically.
func (e TrialError) Error() string {
	return fmt.Sprintf("trial %d (%s, seed %d): %v", e.Trial, e.Kind, e.Seed, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e TrialError) Unwrap() error { return e.Err }

// Failure kinds reported in TrialError.Kind.
const (
	KindError = "error"
	KindPanic = "panic"
)

// FailSoftOptions tunes RunPartial.
type FailSoftOptions struct {
	// Tag is woven into failure logs and TrialError context, like RunTagged.
	Tag string
	// Source, when non-nil, constructs each trial's rand.Source from its
	// seed in place of rand.NewSource. The stdlib source burns ~10µs warming
	// its 607-word table per construction, which dominates sub-100µs trials;
	// latency-sensitive callers inject a cheap-seed source instead. Changing
	// the source changes what seeded trials compute, so results are only
	// comparable across runs using the same source.
	Source func(seed int64) rand.Source
}

// failSoftMetrics are RunPartial's extra instruments. All recording happens
// in the pool machinery — never inside the seeded trial function — so
// instrumented fail-soft runs keep the worker-count bit-identity guarantee.
var failSoftMetrics = struct {
	runs            *obs.Counter
	recoveredPanics *obs.Counter
	dropped         *obs.Counter
}{
	runs:            obs.Default().Counter("engine_failsoft_runs_total"),
	recoveredPanics: obs.Default().Counter("engine_failsoft_recovered_panics_total"),
	dropped:         obs.Default().Counter("engine_failsoft_dropped_trials_total"),
}

// retrySeedStep is the odd 64-bit golden-ratio constant 0x9E3779B97F4A7C15
// (written as the int64 it wraps to) used to derive the seed of re-solve
// attempt k from a trial's base seed (base + k*step). Any odd constant
// gives distinct seeds for all k; this one also decorrelates neighbouring
// trials' re-solve streams.
const retrySeedStep int64 = -0x61C8864680B583EB

// RetrySeed returns the RNG seed of attempt k (0-based) for a trial whose
// base seed is base. Attempt 0 is the base seed itself — what RunPartial
// runs every trial with; the engine never retries, and callers that re-solve
// a trial themselves (serve's commit-conflict path) derive the re-solve's
// seed here so it is a pure function of the trial.
func RetrySeed(base int64, attempt int) int64 {
	return base + int64(attempt)*retrySeedStep
}

// RunPartial executes fn for trials 0..n-1 like Run, but fails soft: a trial
// that panics or errors is recorded as a TrialError and the sweep continues.
// Every trial runs to completion on a pool worker — a trial that must finish
// by a deadline checks that deadline itself and returns an error (the
// serving layer's solves do, through core.Instance.Deadline). The results
// slice always has length n with the zero value at failed (or, after
// cancellation, never-started) indices; the TrialError list — ordered by
// trial index — identifies the holes.
//
// The returned error is non-nil only when ctx was canceled, in which case it
// is ctx.Err() and the results cover the trials that were fed before
// cancellation. Trial failures never abort the run and never surface in the
// error return.
//
// Determinism: trial t always runs with seed(t), so results — including
// which trials fail — are bit-identical across worker counts, as long as the
// trial function itself reads no clock.
func RunPartial[T any](ctx context.Context, n, workers int, seed Seeder, fn TrialFunc[T], opts FailSoftOptions) ([]T, []TrialError, error) {
	if fn == nil {
		panic("engine: RunPartial requires a trial function")
	}
	if n <= 0 {
		return nil, nil, nil
	}
	if seed == nil {
		seed = indexSeed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	failSoftMetrics.runs.Inc()

	// results[t] and failSlots[t] are each written by exactly one worker and
	// read only after the pool returns — no locks needed (same discipline as
	// Run).
	results := make([]T, n)
	failSlots := make([]*TrialError, n)
	runPool(ctx, n, workers, func(t int) {
		te := runFailSoftTrial(t, seed(t), opts, fn, results)
		if te == nil {
			return
		}
		failSlots[t] = te
		metrics.errors.Inc()
		slog.Error("engine: trial dropped",
			"tag", opts.Tag, "trial", t, "kind", te.Kind, "seed", te.Seed, "err", te.Err)
	})

	var failures []TrialError
	for _, te := range failSlots {
		if te != nil {
			failures = append(failures, *te)
		}
	}
	failSoftMetrics.dropped.Add(int64(len(failures)))
	return results, failures, ctx.Err()
}

// runFailSoftTrial runs one trial, writing a successful result into
// results[t]. It returns nil on success or the TrialError that drops the
// trial, converting a panic into one. Metric recording happens here, in the
// pool machinery, outside the seeded trial function.
func runFailSoftTrial[T any](t int, seed int64, opts FailSoftOptions, fn TrialFunc[T], results []T) (te *TrialError) {
	src := opts.Source
	if src == nil {
		src = rand.NewSource
	}
	defer func() {
		if r := recover(); r != nil {
			failSoftMetrics.recoveredPanics.Inc()
			te = &TrialError{Trial: t, Seed: seed, Kind: KindPanic, Err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	res, err := fn(t, rand.New(src(seed)))
	if err != nil {
		return &TrialError{Trial: t, Seed: seed, Kind: KindError, Err: err}
	}
	results[t] = res
	return nil
}
