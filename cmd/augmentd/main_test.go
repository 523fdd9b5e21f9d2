package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/serve/wal"
)

// common parks logging and session alerts, so a saturated test network
// does not write a CRIT line per admission to the test's stderr.
var common = []string{"-log-level", "error", "-alert-warn", "1e-9", "-alert-crit", "1e-9"}

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
	defaults := serve.Options{
		QueueDepth: 64, BatchSize: 8, Batchers: 1, HopBound: 1, Seed: 1,
		AdmitPolicy: serve.AdmitRandom, Admission: serve.AdmissionFIFO,
		WALSync: "always", SnapshotEvery: 256,
	}
	for _, tc := range []struct {
		name   string
		args   []string
		solver string
		want   serve.Options
	}{
		{name: "defaults", solver: "Failsafe", want: defaults},
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
			// A replay journals nothing, records nothing, and never runs the
			// wall-clock probe loop.
			name: "fallback chain, replay clears WAL, record and probe",
			args: []string{"-replay", "T", "-wal-dir", "D", "-record", "R", "-probe-every", "50ms",
				"-solver", "ILP,Heuristic,Greedy"},
			solver: "augmentd",
			want:   defaults,
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
}

// TestUsageErrorsExit2 pins the refusals: a configuration that cannot serve
// or verify anything is a usage error, not a failed run — a tenant quota
// that cannot be journaled included, and the generated drills' flags, which
// are gone.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-restore-only"},
		{"-solver", "nope"},
		{"-tenants", "gold:weight=-1"},
		{"-tenants", "a:rate=Inf"},
		{"-tenants", "a:burst=NaN"},
		{"-selftest"},
		{"-residual", "1.0"},
		{"-no-such-flag"},
	} {
		if code, _, stderr := runCmd(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}

// TestReplayRoundTrip records a generated stream in-process on the network
// augmentd serves by default, replays the trace through the command at
// every combination, refuses it under any of the determinism inputs its
// header pins, and fails a replay whose trailer records another state.
func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace, forged := filepath.Join(dir, "t.trace"), filepath.Join(dir, "forged.trace")
	c, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	net, err := c.network()
	if err != nil {
		t.Fatal(err)
	}
	opt := c.opt
	opt.RecordPath = trace
	svc, err := serve.New(net, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(svc, loadgen.Config{Seed: 1, Requests: 48, WaveSize: 64, ReleaseEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 || res.Released == 0 {
		t.Fatalf("recording admitted %d and released %d requests; want both > 0", res.Admitted, res.Released)
	}

	code, stdout, stderr := runCmd(t, "-replay", trace)
	if want := fmt.Sprintf("replay OK: 4 combinations reproduced %d placements", res.Admitted); code != 0 || !strings.Contains(stdout, want) {
		t.Fatalf("replay exit %d, want 0 and %q\nstdout: %s\nstderr: %s", code, want, stdout, stderr)
	}
	for _, other := range [][]string{
		{"-seed", "2"}, {"-solver", "Greedy"}, {"-l", "2"}, {"-admit", "maxrel"},
	} {
		code, _, stderr := runCmd(t, append([]string{"-replay", trace}, other...)...)
		if code != 2 || !strings.Contains(stderr, "trace was recorded with") {
			t.Errorf("replay under %v: exit %d, want 2 (stderr: %s)", other, code, stderr)
		}
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	body := strings.Join(lines[:len(lines)-1], "")
	body += string(wal.EncodeFrame([]byte(`{"op":"eof","hash":"0000000000000000","placed":1,"epoch":1}`)))
	if err := os.WriteFile(forged, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCmd(t, "-replay", forged); code != 1 || !strings.Contains(stderr, "replay FAILED") {
		t.Errorf("replay against a forged trailer: exit %d, want 1 (stderr: %s)", code, stderr)
	}
}
