package loadgen

import (
	"math/rand"
	"testing"

	"repro/internal/serve"
	"repro/internal/workload"
)

func newService(t *testing.T, workers int, admit string) *serve.Service {
	t.Helper()
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = 1.0
	net := cfg.Network(rand.New(rand.NewSource(11)))
	svc, err := serve.New(net, serve.Options{
		Workers: workers, Seed: 11, QueueDepth: 64, AdmitPolicy: admit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestDeterministicAcrossWorkerCounts pins the service's central contract:
// an identical request stream yields bit-identical placements whether the
// batches are solved by 1 worker or 8, and nothing is dropped as long as the
// wave size stays at or below the queue depth.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := Config{Seed: 7, Requests: 96, WaveSize: 32, ReleaseEvery: 8}
	for _, admit := range []string{serve.AdmitRandom, serve.AdmitMaxReliability} {
		var ref string
		for _, workers := range []int{1, 8} {
			svc := newService(t, workers, admit)
			res, err := Run(svc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			svc.Drain()
			if res.Rejected != 0 {
				t.Fatalf("admit=%s workers=%d: %d rejections below the queue bound", admit, workers, res.Rejected)
			}
			if len(res.Records) != cfg.Requests {
				t.Fatalf("admit=%s workers=%d: %d records for %d requests", admit, workers, len(res.Records), cfg.Requests)
			}
			log := res.PlacementLog()
			if ref == "" {
				ref = log
				if res.Admitted == 0 {
					t.Fatalf("admit=%s: nothing admitted; the test network is too tight to exercise placements", admit)
				}
				continue
			}
			if log != ref {
				t.Errorf("admit=%s: placement log differs between worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", admit, ref, log)
			}
		}
	}
}

// TestRunIsReproducible pins that two runs with the same generator seed on
// identically seeded services produce the same records wholesale.
func TestRunIsReproducible(t *testing.T) {
	cfg := Config{Seed: 3, Requests: 40, WaveSize: 16}
	var ref string
	for run := 0; run < 2; run++ {
		svc := newService(t, 4, serve.AdmitRandom)
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
	svc := newService(t, 1, serve.AdmitRandom)
	defer svc.Drain()
	if _, err := Run(svc, Config{}); err == nil {
		t.Fatal("zero Requests accepted")
	}
}

// TestChaosDeterministicRuns pins the chaos extension of the determinism
// contract: two identically configured chaos runs — and runs at different
// worker counts — produce bit-identical placement AND chaos logs (node
// events, destroyed-instance counts, re-augmentation outcomes), with zero
// silent SLO violations at the end.
func TestChaosDeterministicRuns(t *testing.T) {
	cfg := Config{
		Seed: 7, Requests: 96, WaveSize: 16, ReleaseEvery: 8,
		Chaos: ChaosConfig{Enabled: true, Seed: 3, MeanUpWaves: 3, MeanDownWaves: 2, DegradedRatio: 0.25},
	}
	var refPlace, refChaos string
	for i, workers := range []int{1, 1, 8} {
		svc := newService(t, workers, serve.AdmitRandom)
		res, err := Run(svc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if viol := svc.SilentViolations(); len(viol) != 0 {
			t.Fatalf("run %d: silent SLO violations %v", i, viol)
		}
		svc.Drain()
		if i == 0 {
			refPlace, refChaos = res.PlacementLog(), res.ChaosLog()
			if res.NodeEvents == 0 {
				t.Fatal("chaos schedule produced no node events; tighten MTBF")
			}
			if res.ReaugAttempted == 0 {
				t.Fatal("chaos run attempted no re-augmentation")
			}
			continue
		}
		if res.PlacementLog() != refPlace {
			t.Fatalf("run %d (workers=%d): placement log diverged", i, workers)
		}
		if res.ChaosLog() != refChaos {
			t.Fatalf("run %d (workers=%d): chaos log diverged:\n--- ref ---\n%s--- got ---\n%s", i, workers, refChaos, res.ChaosLog())
		}
	}
}
