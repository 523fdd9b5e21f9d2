package loadgen

import (
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
// bit-identical at any worker × batcher combination. The last case is the
// two-tenant fair-queueing stream augmentd served on its seed-1 network,
// which must end where the trace an older build recorded from it ends.
func TestTenantAdmissionDeterminism(t *testing.T) {
	tenants := []admission.Tenant{
		{Name: "gold", Weight: 4},
		{Name: "free", Weight: 1, Rate: 2, Burst: 6},
	}
	mix := []TenantShare{{Name: "free", Share: 0.7}, {Name: "gold", Share: 0.3}}
	var cases []determinismCase
	for _, mode := range []string{serve.AdmissionFIFO, serve.AdmissionFair, serve.AdmissionKnapsack} {
		cases = append(cases, determinismCase{
			name: mode, net: tenantNetwork,
			opt: serve.Options{Seed: 7, BatchSize: 4, Tenants: tenants, Admission: mode, ScarcityWatermark: 0.6},
			cfg: Config{Seed: 11, Requests: 60, WaveSize: 8, ChainLenMin: 1, ChainLenMax: 2, Expectation: 0.95, TenantMix: mix},
		})
	}
	cases = append(cases, determinismCase{
		name: "augmentd fair", net: augmentdNetwork,
		opt:   serve.Options{Tenants: tenants, Admission: serve.AdmissionFair, AlertWarnFactor: 1e-6, AlertCritFactor: 1e-6},
		cfg:   Config{Seed: 1, Requests: 96, WaveSize: 64, ReleaseEvery: 16, TenantMix: mix},
		trace: "tenants.trace",
	})
	for _, c := range cases {
		if log := runCombinations(t, c).PlacementLog(); !strings.Contains(log, "tenant=") {
			t.Errorf("%s: placement log carries no tenant annotations:\n%s", c.name, log)
		}
	}
}
