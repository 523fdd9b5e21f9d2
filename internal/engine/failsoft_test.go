package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPartialRecoversPanics(t *testing.T) {
	results, failures, err := RunPartial(context.Background(), 20, 4, nil,
		func(trial int, _ *rand.Rand) (int, error) {
			if trial%5 == 0 {
				panic(fmt.Sprintf("trial %d exploded", trial))
			}
			return trial * 2, nil
		}, FailSoftOptions{Tag: "panic-test"})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 4 {
		t.Fatalf("want 4 panicked trials, got %d: %v", len(failures), failures)
	}
	for _, f := range failures {
		if f.Kind != KindPanic {
			t.Fatalf("trial %d kind = %q, want %q", f.Trial, f.Kind, KindPanic)
		}
		if f.Trial%5 != 0 {
			t.Fatalf("unexpected failed trial %d", f.Trial)
		}
	}
	for i, v := range results {
		if i%5 == 0 {
			if v != 0 {
				t.Fatalf("failed trial %d left non-zero result %d", i, v)
			}
			continue
		}
		if v != i*2 {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*2)
		}
	}
}

func TestRunPartialContinuesPastErrors(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int64
	results, failures, err := RunPartial(context.Background(), 200, 4, nil,
		func(trial int, _ *rand.Rand) (int, error) {
			ran.Add(1)
			if trial%3 == 0 {
				return 0, sentinel
			}
			return trial, nil
		}, FailSoftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 200 {
		t.Fatalf("fail-soft run stopped early: %d of 200 trials ran", n)
	}
	if len(results) != 200 {
		t.Fatalf("results length %d", len(results))
	}
	for _, f := range failures {
		if !errors.Is(f.Err, sentinel) {
			t.Fatalf("failure lost its cause: %v", f.Err)
		}
		if !errors.Is(f, sentinel) {
			t.Fatalf("TrialError does not unwrap to the cause: %v", f)
		}
	}
	// Failures are ordered by trial index.
	for i := 1; i < len(failures); i++ {
		if failures[i].Trial <= failures[i-1].Trial {
			t.Fatalf("failures out of order: %v", failures)
		}
	}
}

// TestRunPartialDeadline pins how a bounded trial fails now that the engine
// arms no timer: the trial honours its own deadline — trial 3's work loop
// would run for seconds unbounded — and returns an error, which RunPartial
// records as a KindError TrialError unwrapping to that cause, while every
// other trial completes untouched.
func TestRunPartialDeadline(t *testing.T) {
	errLate := errors.New("trial deadline exceeded")
	start := time.Now()
	deadline := start.Add(30 * time.Millisecond)
	results, failures, err := RunPartial(context.Background(), 8, 2, nil,
		func(trial int, _ *rand.Rand) (int, error) {
			if trial == 3 {
				for i := 0; i < 5000; i++ {
					if !time.Now().Before(deadline) {
						return 0, errLate
					}
					time.Sleep(time.Millisecond)
				}
			}
			return trial, nil
		}, FailSoftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("the slow trial did not honour its deadline (took %v)", elapsed)
	}
	if len(failures) != 1 || failures[0].Trial != 3 || failures[0].Kind != KindError || !errors.Is(failures[0], errLate) {
		t.Fatalf("want one error failure on trial 3 carrying its deadline cause, got %v", failures)
	}
	for i, v := range results {
		if i != 3 && v != i {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}

// TestRunPartialCtxCancel is the satellite requirement: ctx canceled mid-run
// returns ctx.Err() alongside the partial results.
func TestRunPartialCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	go func() {
		for ran.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	results, _, err := RunPartial(ctx, 1_000_000, 2, nil,
		func(trial int, _ *rand.Rand) (int, error) {
			ran.Add(1)
			time.Sleep(10 * time.Microsecond)
			return trial + 1, nil
		}, FailSoftOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Fatal("cancellation did not stop the run early")
	}
	if len(results) != 1_000_000 {
		t.Fatalf("results slice must keep full length, got %d", len(results))
	}
	completed := 0
	for _, v := range results {
		if v != 0 {
			completed++
		}
	}
	if completed == 0 || completed >= 1_000_000 {
		t.Fatalf("want partial results, got %d completed", completed)
	}
}

// TestRunContextCancelReturnsCtxErr is the Run-side half of the satellite:
// the fail-hard executor also surfaces ctx.Err() on cancellation (the
// pre-existing TestRunContextCancel covers the mid-run case; this pins the
// already-canceled one).
func TestRunContextCancelReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, 100, 2, nil, func(trial int, _ *rand.Rand) (int, error) {
		return trial, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// flakyTrial fails deterministically based on its rng draw: the trial seed's
// first draw decides failure, so which trials drop is a pure function of the
// seed, never of scheduling.
func flakyTrial(trial int, rng *rand.Rand) (float64, error) {
	x := rng.Float64()
	if x < 0.4 {
		return 0, fmt.Errorf("flaky draw %v", x)
	}
	for i := 0; i < 5+trial%3; i++ {
		x += rng.Float64()
	}
	return x, nil
}

// TestRunPartialBitIdenticalAcrossWorkers is the satellite determinism
// requirement: RunPartial — with seeded trial failures in play — returns
// bit-identical results and identical TrialError lists for workers=1 and
// workers=GOMAXPROCS.
func TestRunPartialBitIdenticalAcrossWorkers(t *testing.T) {
	seed := func(trial int) int64 { return 99*1_000_003 + int64(trial)*10_007 }
	run := func(workers int) ([]float64, []TrialError) {
		results, failures, err := RunPartial(context.Background(), 128, workers, seed, flakyTrial,
			FailSoftOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return results, failures
	}
	baseRes, baseFail := run(1)
	if len(baseFail) == 0 || len(baseFail) == len(baseRes) {
		t.Fatal("test needs some trials to fail and some to succeed; tune the flaky threshold")
	}
	for _, workers := range []int{2, 4, 8, 0} {
		gotRes, gotFail := run(workers)
		for i := range baseRes {
			if gotRes[i] != baseRes[i] {
				t.Fatalf("workers=%d diverges at trial %d: %v != %v", workers, i, gotRes[i], baseRes[i])
			}
		}
		if !equalFailures(gotFail, baseFail) {
			t.Fatalf("workers=%d failure list diverges:\n%v\nvs\n%v", workers, gotFail, baseFail)
		}
	}
}

// equalFailures compares everything but the error text pointer identity.
func equalFailures(a, b []TrialError) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Trial != b[i].Trial || a[i].Seed != b[i].Seed || a[i].Kind != b[i].Kind ||
			a[i].Err.Error() != b[i].Err.Error() {
			return false
		}
	}
	return true
}

// TestRunPartialRetrySeedDerivation pins the seeding discipline serve's
// conflict re-solve builds on: a trial runs with RetrySeed(seed(t), 0), which
// is the base seed itself, and attempt 1's seed opens a distinct stream. The
// engine itself runs every trial once.
func TestRunPartialRetrySeedDerivation(t *testing.T) {
	base := int64(12345)
	if RetrySeed(base, 0) != base {
		t.Fatalf("attempt 0 must run with the base seed, got %d", RetrySeed(base, 0))
	}
	wantFirst := rand.New(rand.NewSource(base)).Int63()
	wantSecond := rand.New(rand.NewSource(RetrySeed(base, 1))).Int63()
	if wantFirst == wantSecond {
		t.Fatal("retry seed derivation produced identical streams")
	}
	var seen []int64
	_, failures, err := RunPartial(context.Background(), 1, 1,
		func(int) int64 { return base },
		func(trial int, rng *rand.Rand) (int, error) {
			seen = append(seen, rng.Int63())
			return 0, errors.New("always fails")
		}, FailSoftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != wantFirst {
		t.Fatalf("trial streams %v, want one run drawing %d", seen, wantFirst)
	}
	if len(failures) != 1 || failures[0].Seed != base {
		t.Fatalf("failure should carry the trial's seed: %+v", failures)
	}
}

// TestRunPartialNoFailureMatchesRun: on an all-success workload, RunPartial
// computes exactly what Run computes (the no-failure path is the same seeded
// computation on the same pool).
func TestRunPartialNoFailureMatchesRun(t *testing.T) {
	seed := func(trial int) int64 { return 7*1_000_003 + int64(trial)*10_007 }
	fn := func(trial int, rng *rand.Rand) (float64, error) {
		x := 0.0
		for i := 0; i < 8+trial%4; i++ {
			x += rng.Float64()
		}
		return x, nil
	}
	want, err := Run(context.Background(), 64, 4, seed, fn)
	if err != nil {
		t.Fatal(err)
	}
	got, failures, err := RunPartial(context.Background(), 64, 4, seed, fn, FailSoftOptions{})
	if err != nil || len(failures) != 0 {
		t.Fatalf("unexpected failures: %v, %v", failures, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("RunPartial diverges from Run on the no-failure path")
	}
}

func TestRunPartialEdgeCases(t *testing.T) {
	res, failures, err := RunPartial(context.Background(), 0, 4, nil,
		func(int, *rand.Rand) (int, error) { return 1, nil }, FailSoftOptions{})
	if err != nil || res != nil || failures != nil {
		t.Fatalf("n=0: (%v, %v, %v)", res, failures, err)
	}
	res, failures, err = RunPartial[int](nil, 3, 64, nil,
		func(trial int, _ *rand.Rand) (int, error) { return trial, nil }, FailSoftOptions{})
	if err != nil || len(res) != 3 || len(failures) != 0 {
		t.Fatalf("workers>n with nil ctx: (%v, %v, %v)", res, failures, err)
	}
}

func TestRunPartialNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil trial function must panic")
		}
	}()
	RunPartial[int](context.Background(), 1, 1, nil, nil, FailSoftOptions{})
}
