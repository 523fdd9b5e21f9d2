package loadgen

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/wal"
)

// placements renders the timing- and seq-independent placement view of a
// run: one line per admitted request, keyed by placement ID. The generator
// numbers records by submission index while the replay driver numbers them
// by recorded admission sequence, so the record/replay comparison goes
// through this view instead of PlacementLog.
func placements(r *Result) string {
	out := ""
	for _, rec := range r.Records {
		if rec.Status != http.StatusOK {
			continue
		}
		out += fmt.Sprintf("id=%d rel=%.9f met=%v counts=%v sec=%v by=%s\n",
			rec.ID, rec.Reliability, rec.Met, rec.Counts, rec.Secondaries, rec.ServedBy)
	}
	return out
}

// TestRecordReplayRoundTrip pins the trace record/replay contract: a run
// recorded through Options.RecordPath replays bit-identically — same
// placements, same final state hash — at worker and batcher counts different
// from the recording run's.
func TestRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	cfg := Config{Seed: 7, Requests: 96, WaveSize: 32, ReleaseEvery: 8}

	build := func(workers, batchers int, record string) *serve.Service {
		t.Helper()
		return newService(t, serve.Options{
			Workers: workers, Batchers: batchers, Seed: 11, QueueDepth: 64, RecordPath: record,
		})
	}

	rec := build(1, 1, path)
	orig, err := Run(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.Drain()
	origHash, origPlaced := rec.State().Hash(), rec.State().PlacedCount()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if orig.Admitted == 0 {
		t.Fatal("recording run admitted nothing; test network too tight")
	}

	meta, ops, eof, err := serve.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seed != 11 {
		t.Fatalf("meta seed = %d, want 11", meta.Seed)
	}
	if eof == nil {
		t.Fatal("trace has no EOF trailer after Close")
	}
	if eof.Hash != fmt.Sprintf("%016x", origHash) || eof.Placed != origPlaced {
		t.Fatalf("EOF trailer %+v does not match recorded run hash=%016x placed=%d", eof, origHash, origPlaced)
	}

	want := placements(orig)
	for _, combo := range []struct{ w, b int }{{1, 1}, {8, 1}, {1, 4}, {8, 4}} {
		svc := build(combo.w, combo.b, "")
		res, err := Replay(svc, ops, ReplayConfig{WaveSize: cfg.WaveSize})
		if err != nil {
			t.Fatal(err)
		}
		svc.Drain()
		if res.Rejected != 0 {
			t.Fatalf("workers=%d batchers=%d: %d replay submissions rejected", combo.w, combo.b, res.Rejected)
		}
		if got := placements(res); got != want {
			t.Errorf("workers=%d batchers=%d: replay placements diverge from recording:\nrecorded:\n%s\nreplayed:\n%s",
				combo.w, combo.b, want, got)
		}
		if h, p := svc.State().Hash(), svc.State().PlacedCount(); h != origHash || p != origPlaced {
			t.Errorf("workers=%d batchers=%d: replay state hash=%016x placed=%d, recorded hash=%016x placed=%d",
				combo.w, combo.b, h, p, origHash, origPlaced)
		}
	}
}

// TestRecordReplayChaosRoundTrip pins the trace contract under failures: a
// chaos run — node transitions, destroyed instances, re-augmentations — is
// recorded as OpNode/OpRelease/OpAugment ops (re-augmentation enqueues carry
// the Sync flag), and replaying the trace at other worker and batcher counts
// reproduces the final ledger bit-identically. Micro-batch composition is an
// input to every solve, so this test fails if the replay driver ever stops
// honoring sync points.
func TestRecordReplayChaosRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.trace")
	cfg := Config{Seed: 7, Requests: 96, WaveSize: 16, ReleaseEvery: 8,
		Chaos: ChaosConfig{Enabled: true, Seed: 3, MeanUpWaves: 3, MeanDownWaves: 2, DegradedRatio: 0.25}}

	rec := newService(t, serve.Options{Workers: 1, Batchers: 1, Seed: 11, QueueDepth: 64, RecordPath: path})
	orig, err := Run(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.Drain()
	origHash, origPlaced := rec.State().Hash(), rec.State().PlacedCount()
	origDown := fmt.Sprint(rec.State().DownNodes())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if orig.NodeEvents == 0 || orig.ReaugAttempted == 0 {
		t.Fatalf("chaos recording injected nothing (events=%d reaug=%d); schedule too sparse",
			orig.NodeEvents, orig.ReaugAttempted)
	}

	_, ops, eof, err := serve.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if eof == nil {
		t.Fatal("trace has no EOF trailer after Close")
	}
	nodes, syncs := 0, 0
	for _, op := range ops {
		if op.Op == serve.OpNode {
			nodes++
		}
		if op.Sync {
			syncs++
		}
	}
	if nodes == 0 || syncs == 0 {
		t.Fatalf("trace recorded %d node ops and %d sync augments; want both > 0", nodes, syncs)
	}

	for _, combo := range []struct{ w, b int }{{1, 1}, {8, 1}, {1, 4}, {8, 4}} {
		svc := newService(t, serve.Options{Workers: combo.w, Batchers: combo.b, Seed: 11, QueueDepth: 64})
		res, err := Replay(svc, ops, ReplayConfig{WaveSize: cfg.WaveSize})
		if err != nil {
			t.Fatal(err)
		}
		svc.Drain()
		if res.NodeEvents != orig.NodeEvents {
			t.Errorf("workers=%d batchers=%d: replay applied %d node events, recording had %d",
				combo.w, combo.b, res.NodeEvents, orig.NodeEvents)
		}
		if h, p := svc.State().Hash(), svc.State().PlacedCount(); h != origHash || p != origPlaced {
			t.Errorf("workers=%d batchers=%d: replay state hash=%016x placed=%d, recorded hash=%016x placed=%d",
				combo.w, combo.b, h, p, origHash, origPlaced)
		}
		if got := fmt.Sprint(svc.State().DownNodes()); got != origDown {
			t.Errorf("workers=%d batchers=%d: replay down set %s, recorded %s", combo.w, combo.b, got, origDown)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommittedTracesReplay replays every trace kept in testdata at every
// worker × batcher combination and pins that each replay ends in the state
// the trace's EOF trailer holds. Older builds of augmentd recorded them from
// its generated drills (flags that are gone since), all with -seed 1
// -residual 1.0, the sampled network at full residual capacity:
//
//	chaos-drill  -chaos -chaos-mtbf 3 -chaos-mttr 2 -chaos-degraded 0.25 -requests 96 -release-every 8
//	roomy        -requests 128 -capacity-scale 500
//	saturated    -requests 128
//	maxrel       -requests 64 -admit maxrel
//	chain        -requests 64 -solver "ILP,Heuristic,Greedy"
//	tenants      -requests 96 -tenants "gold:weight=4;free:weight=1,rate=2,burst=6" -admission fair -tenant-mix "free:0.7,gold:0.3"
//	ilp-l2       -requests 64 -solver ILP -l 2 -capacity-scale 500
//
// each with -selftest -selftest-workers 1 -selftest-batchers 1 -record.
// chaos-drill repairs a failed session by releasing it and re-admitting it
// under a new ID, as those builds did; chaos-repair is the same drill
// recorded by a build that repairs in place (Run with the chaos-drill
// configuration of TestChaosDeterministicRuns, at 1 worker and 1 batcher,
// with Options.RecordPath), whose repairs are augment ops naming the
// session. The header pins the seed, solver name, hop bound, admit policy,
// admission discipline and tenant set; a row gives what it does not: the
// capacity scale and the spec of a fallback chain (the header names it
// "augmentd").
// Any change that moves a placement, a health transition's ledger effect or
// an epoch install across builds fails here.
func TestCommittedTracesReplay(t *testing.T) {
	for _, tc := range []struct {
		trace  string
		scale  float64
		solver string
		hash   string
		placed int
		epoch  uint64
	}{
		{trace: "chaos-drill.trace", scale: 1, hash: "cb2249cec4c79b54", placed: 10, epoch: 48},
		{trace: "chaos-repair.trace", scale: 1, hash: "c352944708bbe9c1", placed: 11, epoch: 32},
		{trace: "roomy.trace", scale: 500, hash: "82c66942bf394799", placed: 120, epoch: 24},
		{trace: "saturated.trace", scale: 1, hash: "6157700154894b0c", placed: 17, epoch: 4},
		{trace: "maxrel.trace", scale: 1, hash: "f22b8d58ee74a6cd", placed: 20, epoch: 4},
		{trace: "chain.trace", scale: 1, solver: "ILP,Heuristic,Greedy", hash: "bd3e08031d731085", placed: 15, epoch: 3},
		{trace: "tenants.trace", scale: 1, hash: "e8c3403d758ae084", placed: 17, epoch: 5},
		{trace: "ilp-l2.trace", scale: 500, hash: "bf911132089d9fe3", placed: 60, epoch: 12},
	} {
		meta, ops, eof := readTrace(t, tc.trace)
		if eof.Hash != tc.hash || eof.Placed != tc.placed || eof.Epoch != tc.epoch {
			t.Errorf("%s: trailer %+v, want hash=%s placed=%d epoch=%d", tc.trace, eof, tc.hash, tc.placed, tc.epoch)
			continue
		}
		spec := meta.Solver
		if tc.solver != "" {
			spec = tc.solver
		}
		solver, err := core.ParseSolver("augmentd", spec)
		if err != nil {
			t.Fatal(err)
		}
		tenants, err := admission.ParseTenants(meta.Tenants)
		if err != nil {
			t.Fatal(err)
		}
		opt := serve.Options{
			Seed: meta.Seed, Solver: solver, HopBound: meta.HopBound, AdmitPolicy: meta.AdmitPolicy,
			Admission: meta.Admission, Tenants: tenants,
		}
		_, err = VerifyReplay(ops, eof, 64, func(workers, batchers int) (*serve.Service, error) {
			opt.Workers, opt.Batchers = workers, batchers
			return serve.New(sampledNetwork(meta.Seed, tc.scale), opt)
		})
		if err != nil {
			t.Errorf("%s: %v", tc.trace, err)
		}
	}
}

// FuzzReadTraceReplay feeds arbitrary bytes to the trace reader: it may
// refuse them, but ops it accepts must replay on a fresh service to
// completion without a panic. The seed corpus is every committed trace plus
// well-framed hostile ops (out-of-range nodes, ids, endpoints and sequence
// numbers).
func FuzzReadTraceReplay(f *testing.F) {
	traces, err := filepath.Glob(filepath.Join("testdata", "*.trace"))
	if err != nil || len(traces) == 0 {
		f.Fatalf("no committed traces (%v)", err)
	}
	for _, path := range traces {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	frame := func(ops ...string) []byte {
		var out []byte
		for _, op := range ops {
			out = append(out, wal.EncodeFrame([]byte(op))...)
		}
		return out
	}
	meta := `{"op":"meta","seed":1,"solver":"Failsafe","l":1,"admit":"random"}`
	f.Add(frame(meta,
		`{"op":"node","id":100000,"health":"down"}`,
		`{"op":"node","id":-1,"health":"bogus"}`,
		`{"op":"release","id":-7}`,
		`{"op":"augment","seq":-3,"sfc":[-1,99999],"rho":2,"src":-4,"dst":1000}`,
		`{"op":"augment","seq":9223372036854775807,"sfc":[1],"rho":0.9,"src":0,"dst":1,"primaries":[5000]}`,
		`{"op":"augment","seq":2,"sfc":[],"rho":0.9,"src":0,"dst":1,"deadline_ms":-5,"sync":true}`,
		`{"op":"eof","hash":"zz","placed":-1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.trace")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ops, _, err := serve.ReadTrace(path)
		if err != nil {
			return
		}
		svc, err := serve.New(augmentdNetwork(), serve.Options{Workers: 1, AlertWarnFactor: 1e-9, AlertCritFactor: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		Replay(svc, ops, ReplayConfig{WaveSize: 64})
	})
}
