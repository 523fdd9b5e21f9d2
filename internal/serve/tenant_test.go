package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/mec"
)

func TestTenantQuotaRejectsWith429(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{
		Workers: 1, Seed: 3,
		Tenants: []admission.Tenant{{Name: "metered", Weight: 1, Rate: 1, Burst: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	// The bucket starts full at Burst=2; the first virtual batch tick covers
	// the whole test (BatchSize 8, sequences 1..3), so no refill lands and
	// exactly two submissions pass.
	metered := func(i int) AugmentRequest {
		ar := testRequest(i)
		ar.Tenant = "metered"
		return ar
	}
	for i := 0; i < 2; i++ {
		tk, err := svc.Enqueue(metered(i))
		if err != nil {
			t.Fatalf("submission %d within burst rejected: %v", i, err)
		}
		tk.Wait()
	}
	_, err = svc.Enqueue(metered(2))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("post-burst submission: err=%v, want ErrQuotaExceeded", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Fatal("quota rejection must not alias ErrQueueFull")
	}

	// The HTTP layer answers the quota denial as 429 + Retry-After, same as a
	// full queue but with a distinguishable error text and metric reason.
	body, _ := json.Marshal(metered(3))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/augment", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("quota denial answered %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After header")
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("quota")) {
		t.Fatalf("quota 429 body does not name the quota: %s", rec.Body)
	}

	// /v1/tenants reports the accounting: 2 admitted (or infeasible), 2 denied.
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tenants", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/tenants answered %d", rec.Code)
	}
	var tr TenantsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	var row *TenantStatus
	for i := range tr.Tenants {
		if tr.Tenants[i].Name == "metered" {
			row = &tr.Tenants[i]
		}
	}
	if row == nil {
		t.Fatalf("tenant metered missing from %+v", tr)
	}
	if row.RejectedQuota != 2 {
		t.Fatalf("rejected_quota=%d, want 2", row.RejectedQuota)
	}
	if row.Tokens == nil || *row.Tokens >= 1 {
		t.Fatalf("bucket tokens=%v after burst exhaustion, want < 1", row.Tokens)
	}
}

func TestUnknownTenantResolvesToDefault(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ar := testRequest(0)
	ar.Tenant = "nobody-configured-this"
	tk, err := svc.Enqueue(ar)
	if err != nil {
		t.Fatal(err)
	}
	tk.Wait()
	stats := svc.TenantStats()
	if len(stats.Tenants) != 1 || stats.Tenants[0].Name != admission.DefaultTenant {
		t.Fatalf("tenant set %+v, want just the default", stats.Tenants)
	}
	if got := stats.Tenants[0].Admitted + stats.Tenants[0].Infeasible; got != 1 {
		t.Fatalf("default tenant accounted %d outcomes, want 1", got)
	}
}

// tinyNetwork is a 3-cloudlet network small enough to saturate in a few
// requests: one function type of demand 10 against capacity 25 per node.
func tinyNetwork() *mec.Network {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	cat := mec.NewCatalog([]mec.FunctionType{{Name: "fw", Demand: 10, Reliability: 0.9}})
	return mec.NewNetwork(g, []float64{25, 25, 25}, cat)
}

func TestKnapsackShedsInfeasibleWindowWith429(t *testing.T) {
	svc, err := New(tinyNetwork(), Options{
		Workers: 1, Seed: 3, BatchSize: 1,
		Admission:         AdmissionKnapsack,
		ScarcityWatermark: 1.0, // scarce as soon as anything is placed
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	ar := AugmentRequest{SFC: []int{0}, Expectation: 0.95, Source: 0, Destination: 2}
	// Saturate: keep submitting until the pack oracle can no longer fit a
	// demand-10 candidate anywhere. Admissions and sheds are both fine along
	// the way; what is pinned is the endgame — an all-infeasible window under
	// scarcity is shed with 429, never answered 422.
	sheds, admitted := 0, 0
	for i := 0; i < 30; i++ {
		tk, err := svc.Enqueue(ar)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		out := tk.Wait()
		switch out.Status {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			sheds++
		default:
			t.Fatalf("submission %d answered %d (%s) in knapsack mode, want 200 or 429",
				i, out.Status, out.Err)
		}
	}
	if admitted == 0 {
		t.Fatal("knapsack admitted nothing on an empty network")
	}
	if sheds == 0 {
		t.Fatal("saturated network shed nothing under knapsack admission")
	}
	stats := svc.TenantStats()
	if !stats.Scarce {
		t.Fatal("scarcity mode not engaged after saturation")
	}
	if got := stats.Tenants[0].Shed; got != int64(sheds) {
		t.Fatalf("tenant shed count %d, want %d", got, sheds)
	}
}

func TestTenantQuotaSurvivesWALRestart(t *testing.T) {
	dir := t.TempDir()
	tenants := []admission.Tenant{{Name: "metered", Weight: 2, Rate: 0.5, Burst: 8}}
	opt := Options{
		Workers: 1, Seed: 3, WALDir: dir, WALSync: "none",
		Tenants: tenants,
	}
	svc, err := New(testNetwork(1000), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ar := testRequest(i)
		ar.Tenant = "metered"
		tk, err := svc.Enqueue(ar)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		tk.Wait()
	}
	before := svc.TenantStats()
	if before.Tenants[1].Tokens == nil {
		t.Fatalf("metered tenant has no bucket: %+v", before.Tenants)
	}
	wantTokens := *before.Tenants[1].Tokens
	if wantTokens >= 8 {
		t.Fatalf("bucket still full (%v) after 3 takes", wantTokens)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(testNetwork(1000), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	after := svc2.TenantStats()
	if after.Tenants[1].Tokens == nil {
		t.Fatal("restored metered tenant has no bucket")
	}
	if got := *after.Tenants[1].Tokens; got != wantTokens {
		t.Fatalf("restored bucket tokens=%v, want %v (journaled)", got, wantTokens)
	}
}

// TestNewRefusesBadTenants pins that New applies the tenant check
// ParseTenants applies: a non-finite quota cannot be journaled, so a service
// that accepted one would answer 200 to admissions its WAL never holds.
func TestNewRefusesBadTenants(t *testing.T) {
	for _, bad := range []admission.Tenant{
		{Name: "a", Weight: 1, Rate: math.Inf(1), Burst: 1},
		{Name: "a", Weight: 1, Burst: math.NaN()},
		{Name: "a", Weight: 1, Rate: -1},
		{Name: "a"},
		{Weight: 1},
	} {
		if svc, err := New(testNetwork(1000), Options{WALDir: t.TempDir(), Tenants: []admission.Tenant{bad}}); err == nil {
			svc.Close()
			t.Errorf("New accepted tenant %+v", bad)
		}
	}
}
