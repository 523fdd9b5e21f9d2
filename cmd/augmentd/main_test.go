package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// common serves the full-capacity network and parks logging and session
// alerts, so a saturated test network does not write a CRIT line per
// admission to the test's stderr.
var common = []string{"-log-level", "error", "-alert-warn", "1e-9", "-alert-crit", "1e-9", "-residual", "1.0"}

// runCmd runs the command in-process and returns its exit code and streams.
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, common...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFlagsToOptions pins the flag wiring: every serving flag lands in the
// serve.Options field it names, and the defaults are the documented ones.
func TestFlagsToOptions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		solver string
		want   serve.Options
	}{
		{
			name:   "defaults",
			solver: "Failsafe",
			want: serve.Options{
				QueueDepth: 64, BatchSize: 8, Batchers: 1, HopBound: 1, Seed: 1,
				AdmitPolicy: serve.AdmitRandom, Admission: serve.AdmissionFIFO,
				WALSync: "always", SnapshotEvery: 256,
			},
		},
		{
			name: "every serving flag",
			args: []string{
				"-queue", "16", "-batch", "2", "-workers", "3", "-batchers", "4", "-solver", "ilp",
				"-l", "2", "-admit", "maxrel", "-seed", "9", "-wal-dir", "D", "-wal-sync", "none",
				"-snapshot-every", "7", "-record", "R", "-alert-warn", "1.2", "-alert-crit", "0.9",
				"-probe-every", "50ms", "-tenants", "gold:weight=4", "-admission", "fair",
			},
			solver: "ILP",
			want: serve.Options{
				QueueDepth: 16, BatchSize: 2, Workers: 3, Batchers: 4, HopBound: 2, Seed: 9,
				AdmitPolicy: serve.AdmitMaxReliability, Admission: serve.AdmissionFair,
				WALDir: "D", WALSync: "none", SnapshotEvery: 7, RecordPath: "R",
				AlertWarnFactor: 1.2, AlertCritFactor: 0.9, ProbeEvery: 50 * time.Millisecond,
				Tenants: []admission.Tenant{{Name: "gold", Weight: 4}},
			},
		},
		{
			// The probe loop is wall-clock-driven: the harness never runs it.
			name:   "fallback chain, probe off under selftest",
			args:   []string{"-selftest", "-probe-every", "50ms", "-fallback", "ILP,Heuristic,Greedy"},
			solver: "augmentd",
			want: serve.Options{
				QueueDepth: 64, BatchSize: 8, Batchers: 1, HopBound: 1, Seed: 1,
				AdmitPolicy: serve.AdmitRandom, Admission: serve.AdmissionFIFO,
				WALSync: "always", SnapshotEvery: 256,
			},
		},
	} {
		c, err := parseFlags(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := c.opt
		if got.Solver == nil || got.Solver.Name() != tc.solver {
			t.Errorf("%s: solver %v, want %s", tc.name, got.Solver, tc.solver)
		}
		got.Solver = nil
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: options\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}

	c, err := parseFlags([]string{
		"-selftest", "-seed", "9", "-queue", "16", "-requests", "10", "-release-every", "3",
		"-chaos", "-chaos-mtbf", "3", "-chaos-mttr", "1.5", "-chaos-degraded", "0.25", "-tenant-mix", "gold:1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := loadgen.Config{
		Seed: 9, Requests: 10, WaveSize: 16, ReleaseEvery: 3,
		Chaos:     loadgen.ChaosConfig{Enabled: true, MeanUpWaves: 3, MeanDownWaves: 1.5, DegradedRatio: 0.25},
		TenantMix: []loadgen.TenantShare{{Name: "gold", Share: 1}},
	}
	if !reflect.DeepEqual(c.load, want) {
		t.Errorf("selftest stream\n got %+v\nwant %+v", c.load, want)
	}
}

// TestUsageErrorsExit2 pins the harness's refusals: a configuration that
// cannot verify anything is a usage error, not a failed verification.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-selftest", "-kill"},
		{"-restore-only"},
		{"-solver", "nope"},
		{"-tenants", "gold:weight=-1"},
		{"-selftest", "-selftest-workers", "1,0"},
		{"-selftest", "-selftest-batchers", "x"},
		{"-no-such-flag"},
	} {
		if code, _, stderr := runCmd(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}

// TestSelftestRecordReplayRoundTrip runs the whole harness in-process on a
// tiny stream: a selftest over four combinations with per-run WAL checks, a
// second selftest refused on the now-used directory, a recorded trace
// replayed at other combinations, and the same trace refused under any of
// the determinism inputs its header pins.
func TestSelftestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wal, trace := filepath.Join(dir, "wal"), filepath.Join(dir, "t.trace")
	selftest := []string{"-selftest", "-requests", "24", "-release-every", "4", "-wal-dir", wal}

	code, stdout, stderr := runCmd(t, selftest...)
	if code != 0 || !strings.Contains(stdout, "selftest OK: 4 combinations agree") {
		t.Fatalf("selftest exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if code, _, stderr := runCmd(t, selftest...); code != 2 || !strings.Contains(stderr, "empty -wal-dir") {
		t.Fatalf("selftest on a used WAL directory: exit %d, want 2 (stderr: %s)", code, stderr)
	}

	code, stdout, stderr = runCmd(t, "-selftest", "-requests", "24", "-release-every", "4",
		"-selftest-workers", "1", "-selftest-batchers", "1", "-record", trace)
	if code != 0 {
		t.Fatalf("recording selftest exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	code, stdout, stderr = runCmd(t, "-replay", trace, "-selftest-workers", "1,8", "-selftest-batchers", "1,4")
	if code != 0 || !strings.Contains(stdout, "replay OK: 4 combinations reproduced") {
		t.Fatalf("replay exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, other := range [][]string{
		{"-seed", "2"}, {"-solver", "Greedy"}, {"-l", "2"}, {"-admit", "maxrel"},
	} {
		code, _, stderr := runCmd(t, append([]string{"-replay", trace}, other...)...)
		if code != 2 || !strings.Contains(stderr, "trace was recorded with") {
			t.Errorf("replay under %v: exit %d, want 2 (stderr: %s)", other, code, stderr)
		}
	}
}

// TestLatencyQuantilesNearestRank pins the selftest's latency columns to the
// exact nearest-rank order statistics on more samples than any bounded
// reservoir of 2^15 would keep: 40,000 answered latencies of 1..40,000 µs in
// scrambled order, plus unanswered records (zero latency) that must not
// count.
func TestLatencyQuantilesNearestRank(t *testing.T) {
	const n = 40_000
	var records []loadgen.Record
	for i := 1; i <= n; i++ {
		us := (i*7919)%n + 1 // 7919 is coprime to n: a permutation of 1..n
		records = append(records, loadgen.Record{Latency: time.Duration(us) * time.Microsecond})
		if i%1000 == 0 {
			records = append(records, loadgen.Record{})
		}
	}
	// The p-quantile is the ⌈p·n⌉-th smallest latency, ⌈p·n⌉ µs here.
	want := fmt.Sprintf("p50=%v p99=%v p999=%v",
		20_000*time.Microsecond, 39_600*time.Microsecond, 39_960*time.Microsecond)
	if got := latencyQuantiles(records); got != want {
		t.Fatalf("latencyQuantiles = %q, want %q", got, want)
	}
	if got := latencyQuantiles(nil); got != "p50=0s p99=0s p999=0s" {
		t.Fatalf("no answered requests: %q", got)
	}
}
