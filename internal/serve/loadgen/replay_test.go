package loadgen

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/workload"
)

// newServiceOpts builds a service over the canonical loadgen test network
// (default workload, full residuals, seed 11) with caller-supplied options —
// the record/replay tests need RecordPath and batcher counts the simpler
// newService helper does not expose.
func newServiceOpts(t *testing.T, opt serve.Options) *serve.Service {
	t.Helper()
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = 1.0
	net := cfg.Network(rand.New(rand.NewSource(11)))
	svc, err := serve.New(net, opt)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

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
		svc := newServiceOpts(t, serve.Options{
			Workers: workers, Batchers: batchers, Seed: 11, QueueDepth: 64, RecordPath: record,
		})
		return svc
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

	rec := newServiceOpts(t, serve.Options{Workers: 1, Batchers: 1, Seed: 11, QueueDepth: 64, RecordPath: path})
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
		svc := newServiceOpts(t, serve.Options{Workers: combo.w, Batchers: combo.b, Seed: 11, QueueDepth: 64})
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

// TestCommittedChaosTraceReplays replays a chaos-drill trace kept in
// testdata, recorded with
//
//	augmentd -selftest -chaos -chaos-mtbf 3 -chaos-mttr 2 -chaos-degraded 0.25 \
//	    -requests 96 -release-every 8 -selftest-workers 1 -selftest-batchers 1 \
//	    -residual 1.0 -record chaos-drill.trace
//
// on the network augmentd samples for -seed 1 -residual 1.0, at every worker
// × batcher combination, and pins that each replay ends in the state the
// trace's EOF trailer holds. The trace was written by an older build of the
// service, so any change that moves a placement, a health transition's
// ledger effect or an epoch install across builds fails here.
func TestCommittedChaosTraceReplays(t *testing.T) {
	meta, ops, eof, err := serve.ReadTrace(filepath.Join("testdata", "chaos-drill.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if eof == nil || eof.Hash != "cb2249cec4c79b54" || eof.Placed != 10 {
		t.Fatalf("trace trailer %+v, want hash=cb2249cec4c79b54 placed=10", eof)
	}
	nodes, augments := 0, 0
	for _, op := range ops {
		switch op.Op {
		case serve.OpNode:
			nodes++
		case serve.OpAugment:
			augments++
		}
	}
	if nodes != 8 || augments != 125 {
		t.Fatalf("trace holds %d node events and %d augments, want 8 and 125", nodes, augments)
	}
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = 1.0
	cfg.HopBound = meta.HopBound
	for _, combo := range []struct{ w, b int }{{1, 1}, {8, 1}, {1, 4}, {8, 4}} {
		net := cfg.Network(rand.New(rand.NewSource(meta.Seed)))
		svc, err := serve.New(net, serve.Options{Workers: combo.w, Batchers: combo.b, Seed: meta.Seed, HopBound: meta.HopBound})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(svc, ops, ReplayConfig{WaveSize: 64}); err != nil {
			t.Fatal(err)
		}
		svc.Drain()
		st := svc.State()
		if h, p, e := fmt.Sprintf("%016x", st.Hash()), st.PlacedCount(), st.Epoch(); h != eof.Hash || p != eof.Placed || e != eof.Epoch {
			t.Errorf("workers=%d batchers=%d: DIVERGENCE hash=%s placed=%d epoch=%d, recorded hash=%s placed=%d epoch=%d",
				combo.w, combo.b, h, p, e, eof.Hash, eof.Placed, eof.Epoch)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
