package loadgen

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mec"
	"repro/internal/serve"
	"repro/internal/workload"
)

// sampledNetwork is the network cmd/augmentd samples for seed, at full
// residual capacity and with every cloudlet capacity multiplied by scale.
// Seed 1 at scale 1 is the network the committed traces were recorded on.
func sampledNetwork(seed int64, scale float64) *mec.Network {
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = 1.0
	cfg.CapacityMin *= scale
	cfg.CapacityMax *= scale
	return cfg.Network(rand.New(rand.NewSource(seed)))
}

// augmentdNetwork is sampledNetwork(1, 1), as a constructor for
// runCombinations.
func augmentdNetwork() *mec.Network { return sampledNetwork(1, 1) }

// newService builds a service over the seed-11 test network.
func newService(t *testing.T, opt serve.Options) *serve.Service {
	t.Helper()
	svc, err := serve.New(sampledNetwork(11, 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// readTrace reads a trace committed under testdata.
func readTrace(t *testing.T, name string) (meta serve.TraceOp, ops []serve.TraceOp, eof *serve.TraceOp) {
	t.Helper()
	meta, ops, eof, err := serve.ReadTrace(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if eof == nil {
		t.Fatalf("%s has no EOF trailer", name)
	}
	return meta, ops, eof
}

// determinismCase is one stream driven by runCombinations: the network, the
// service options (workers, batchers and WAL directory are set per run) and
// the generator configuration. trace, when set, names the committed trace
// recorded from this very stream by an older build: every run must end in
// the state its trailer holds.
type determinismCase struct {
	name  string
	net   func() *mec.Network
	opt   serve.Options
	cfg   Config
	trace string
}

// runCombinations drives c's stream through a fresh service at every
// (workers, batchers) combination of Combinations, each journaling into a
// WAL directory of its own, and pins what the service promises of every
// such run: all of them produce the placement log and chaos log of the
// first; under fifo admission nothing is rejected below the queue bound;
// under chaos no placement below its expectation goes unalerted; and the
// run's WAL replays to its live state hash, placement count and down set.
// It returns the first run's result.
func runCombinations(t *testing.T, c determinismCase) *Result {
	t.Helper()
	var want *serve.TraceOp
	if c.trace != "" {
		_, _, want = readTrace(t, c.trace)
	}
	var ref *Result
	for _, combo := range Combinations {
		run := fmt.Sprintf("%s workers=%d batchers=%d", c.name, combo.Workers, combo.Batchers)
		opt := c.opt
		opt.Workers, opt.Batchers, opt.WALDir = combo.Workers, combo.Batchers, t.TempDir()
		svc, err := serve.New(c.net(), opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(svc, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.Drain()
		if len(res.Records) != c.cfg.Requests {
			t.Errorf("%s: %d records for %d requests", run, len(res.Records), c.cfg.Requests)
		}
		if (opt.Admission == "" || opt.Admission == serve.AdmissionFIFO) && res.Rejected != res.Quota {
			t.Errorf("%s: %d requests rejected below the queue bound", run, res.Rejected-res.Quota)
		}
		if silent := svc.SilentViolations(); c.cfg.Chaos.Enabled && len(silent) > 0 {
			t.Errorf("%s: %d silent SLO violations (sessions %v)", run, len(silent), silent)
		}
		st := svc.State()
		hash, placed, epoch := fmt.Sprintf("%016x", st.Hash()), st.PlacedCount(), st.Epoch()
		if want != nil && (hash != want.Hash || placed != want.Placed || epoch != want.Epoch) {
			t.Errorf("%s: hash=%s placed=%d epoch=%d, %s recorded hash=%s placed=%d epoch=%d",
				run, hash, placed, epoch, c.trace, want.Hash, want.Placed, want.Epoch)
		}
		// The kill/restore contract, in-process: the run's WAL, replayed
		// against the same network, is the live state — down set included.
		if re, err := serve.NewStateFromWAL(c.net(), opt.WALDir); err != nil {
			t.Errorf("%s: WAL replay: %v", run, err)
		} else if re.Hash() != st.Hash() || re.PlacedCount() != placed {
			t.Errorf("%s: WAL replays to hash=%016x placed=%d, live hash=%s placed=%d",
				run, re.Hash(), re.PlacedCount(), hash, placed)
		} else if got, live := fmt.Sprint(re.DownNodes()), fmt.Sprint(st.DownNodes()); got != live {
			t.Errorf("%s: WAL replays to down set %s, live %s", run, got, live)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if diff := firstDiff(ref.PlacementLog(), res.PlacementLog()); diff != "" {
			t.Errorf("%s: placement log differs from the first run's: %s", run, diff)
		}
		if diff := firstDiff(ref.ChaosLog(), res.ChaosLog()); diff != "" {
			t.Errorf("%s: chaos log differs from the first run's: %s", run, diff)
		}
	}
	return ref
}

// firstDiff renders the first line at which two logs differ ("" when they
// are equal).
func firstDiff(a, b string) string {
	if a == b {
		return ""
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  - %s\n  + %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(al), len(bl))
}

// TestDeterministicAcrossWorkerCounts pins the service's central contract:
// an identical request stream yields bit-identical placements at any worker
// × batcher count, nothing is dropped as long as the wave size stays at or
// below the queue depth, and every run's WAL replays to its state. Beside
// two streams on the seed-11 network it runs the generated stream augmentd
// served on its seed-1 network under each primary-placement policy and under
// a fallback chain headed by the exact solver; each of those ends where the
// trace an older build recorded from it ends.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	chain, err := core.ParseSolver("augmentd", "ILP,Heuristic,Greedy")
	if err != nil {
		t.Fatal(err)
	}
	seed11 := func() *mec.Network { return sampledNetwork(11, 1) }
	small := Config{Seed: 7, Requests: 96, WaveSize: 32, ReleaseEvery: 8}
	stream := func(requests int) Config {
		return Config{Seed: 1, Requests: requests, WaveSize: 64, ReleaseEvery: 16}
	}
	for _, c := range []determinismCase{
		{name: "random", net: seed11, opt: serve.Options{Seed: 11, QueueDepth: 64}, cfg: small},
		{name: "maxrel", net: seed11, opt: serve.Options{Seed: 11, QueueDepth: 64, AdmitPolicy: serve.AdmitMaxReliability}, cfg: small},
		{name: "augmentd", net: augmentdNetwork, cfg: stream(128), trace: "saturated.trace"},
		{name: "augmentd maxrel", net: augmentdNetwork, opt: serve.Options{AdmitPolicy: serve.AdmitMaxReliability},
			cfg: stream(64), trace: "maxrel.trace"},
		{name: "augmentd chain", net: augmentdNetwork, opt: serve.Options{Solver: chain}, cfg: stream(64), trace: "chain.trace"},
	} {
		if res := runCombinations(t, c); res.Admitted == 0 {
			t.Errorf("%s: nothing admitted; the network is too tight to exercise placements", c.name)
		}
	}
}

// TestRunIsReproducible pins that two runs with the same generator seed on
// identically seeded services produce the same records wholesale.
func TestRunIsReproducible(t *testing.T) {
	cfg := Config{Seed: 3, Requests: 40, WaveSize: 16}
	var ref string
	for run := 0; run < 2; run++ {
		svc := newService(t, serve.Options{Workers: 4, Seed: 11, QueueDepth: 64})
		res, err := Run(svc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.Drain()
		if log := res.PlacementLog(); ref == "" {
			ref = log
		} else if log != ref {
			t.Fatal("identical seeds produced different placement logs")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 1, Seed: 11})
	defer svc.Drain()
	if _, err := Run(svc, Config{}); err == nil {
		t.Fatal("zero Requests accepted")
	}
}

// TestChaosDeterministicRuns pins the chaos extension of the determinism
// contract: chaos runs at every worker × batcher count produce bit-identical
// placement AND chaos logs (node events, destroyed-instance counts,
// re-augmentation outcomes), end with zero silent SLO violations, and
// journal WALs that replay to their final state, down set included. The
// second case is the chaos drill augmentd ran on its seed-1 network, which
// must end where chaos-repair.trace, recorded from it since failed sessions
// are repaired in place, ends.
func TestChaosDeterministicRuns(t *testing.T) {
	for _, c := range []determinismCase{
		{
			name: "seed 11", net: func() *mec.Network { return sampledNetwork(11, 1) },
			opt: serve.Options{Seed: 11, QueueDepth: 64},
			cfg: Config{Seed: 7, Requests: 96, WaveSize: 16, ReleaseEvery: 8,
				Chaos: ChaosConfig{Enabled: true, Seed: 3, MeanUpWaves: 3, MeanDownWaves: 2, DegradedRatio: 0.25}},
		},
		{
			name: "augmentd drill", net: augmentdNetwork,
			cfg: Config{Seed: 1, Requests: 96, WaveSize: 64, ReleaseEvery: 8,
				Chaos: ChaosConfig{Enabled: true, MeanUpWaves: 3, MeanDownWaves: 2, DegradedRatio: 0.25}},
			trace: "chaos-repair.trace",
		},
	} {
		res := runCombinations(t, c)
		if res.NodeEvents == 0 || res.ReaugAttempted == 0 {
			t.Errorf("%s: chaos injected %d node events and attempted %d re-augmentations; want both > 0",
				c.name, res.NodeEvents, res.ReaugAttempted)
		}
	}
}
