package loadgen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/mec"
	"repro/internal/serve"
)

// tenantNetwork is a small 5-cloudlet network sized so a 60-request run under
// a 0.6 scarcity watermark actually crosses into knapsack admission.
func tenantNetwork() *mec.Network {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	cat := mec.NewCatalog([]mec.FunctionType{
		{Name: "fw", Demand: 10, Reliability: 0.96},
		{Name: "nat", Demand: 15, Reliability: 0.92},
	})
	return mec.NewNetwork(g, []float64{120, 120, 120, 120, 120}, cat)
}

// TestTenantAdmissionDeterminism pins the admission-economics hard
// requirement: with tenants, quotas, and each queue discipline, the full
// placement log — admissions, quota denials, sheds, and every placement — is
// bit-identical at any worker × batcher combination.
func TestTenantAdmissionDeterminism(t *testing.T) {
	tenants := []admission.Tenant{
		{Name: "gold", Weight: 4},
		{Name: "free", Weight: 1, Rate: 2, Burst: 6},
	}
	cfg := Config{
		Seed: 11, Requests: 60, WaveSize: 8, ChainLenMin: 1, ChainLenMax: 2,
		Expectation: 0.95,
		TenantMix: []TenantShare{
			{Name: "free", Share: 0.7},
			{Name: "gold", Share: 0.3},
		},
	}
	combos := []struct{ workers, batchers int }{{1, 1}, {4, 2}, {8, 3}}
	for _, mode := range []string{serve.AdmissionFIFO, serve.AdmissionFair, serve.AdmissionKnapsack} {
		var want string
		for _, c := range combos {
			svc, err := serve.New(tenantNetwork(), serve.Options{
				Workers: c.workers, Batchers: c.batchers, Seed: 7,
				BatchSize: 4,
				Tenants:   tenants, Admission: mode, ScarcityWatermark: 0.6,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(svc, cfg)
			svc.Drain()
			if err != nil {
				t.Fatal(err)
			}
			got := res.PlacementLog()
			label := fmt.Sprintf("%s w=%d b=%d", mode, c.workers, c.batchers)
			if !strings.Contains(got, "tenant=") {
				t.Fatalf("%s: placement log carries no tenant annotations:\n%s", label, got)
			}
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("%s: placement log diverged from the w=1 b=1 run:\nwant:\n%s\ngot:\n%s",
					label, want, got)
			}
		}
	}
}

// TestParseTenantMix covers the flag syntax used by cmd/augmentd -tenant-mix.
func TestParseTenantMix(t *testing.T) {
	mix, err := ParseTenantMix("gold:0.2, free:0.8")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].Name != "gold" || mix[0].Share != 0.2 || mix[1].Name != "free" {
		t.Fatalf("parsed %+v", mix)
	}
	for _, bad := range []string{"gold", "gold:", "gold:-1", ":0.5", "gold:x"} {
		if _, err := ParseTenantMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
	if mix, err := ParseTenantMix(""); err != nil || mix != nil {
		t.Errorf("empty mix: %v %v", mix, err)
	}
}
