package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint scrapes /metrics from an httptest server and checks
// the counter and histogram rendering end to end — the golden-ish shape a
// Prometheus scraper would ingest.
func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_trials_total").Add(160)
	r.Counter("solver_solve_total", "solver", "ILP").Add(40)
	// The branch-and-bound counter core's exact solver records; here we pin
	// that the Prometheus path renders unlabelled counters like it.
	r.Counter("ilp_bnb_nodes_claimed").Add(15)
	h := r.Histogram("solver_duration_seconds", []float64{0.01, 0.1, 1}, "solver", "ILP")
	h.Observe(0.005)
	h.Observe(0.5)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	code, body := scrape(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE engine_trials_total counter",
		"engine_trials_total 160",
		"# TYPE ilp_bnb_nodes_claimed counter",
		"ilp_bnb_nodes_claimed 15",
		`solver_solve_total{solver="ILP"} 40`,
		"# TYPE solver_duration_seconds histogram",
		`solver_duration_seconds_bucket{solver="ILP",le="0.01"} 1`,
		`solver_duration_seconds_bucket{solver="ILP",le="+Inf"} 2`,
		`solver_duration_seconds_sum{solver="ILP"} 0.505`,
		`solver_duration_seconds_count{solver="ILP"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = scrape(t, srv.URL+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics.json = %d", code)
	}
	var snap map[string]interface{}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if snap["engine_trials_total"] != float64(160) {
		t.Fatalf("/metrics.json counter = %v", snap["engine_trials_total"])
	}
}

// TestDebugVarsEndpoint checks /debug/vars returns valid expvar JSON
// including the stdlib vars and the published registry snapshot.
func TestDebugVarsEndpoint(t *testing.T) {
	r := Default() // expvar mirrors the first-published registry (Default)
	r.Counter("debugvars_probe_total").Inc()

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	code, body := scrape(t, srv.URL+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", code)
	}
	var vars map[string]interface{}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not valid JSON: %v", err)
	}
	if _, ok := vars["cmdline"]; !ok {
		t.Fatal("/debug/vars missing stdlib cmdline var")
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing stdlib memstats var")
	}
	metrics, ok := vars["metrics"].(map[string]interface{})
	if !ok {
		t.Fatalf("/debug/vars missing published registry snapshot: %v", vars["metrics"])
	}
	if metrics["debugvars_probe_total"] != float64(1) {
		t.Fatalf("registry snapshot missing probe counter: %v", metrics["debugvars_probe_total"])
	}
}

// TestPprofIndex confirms the profiling endpoints are wired.
func TestPprofIndex(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry()))
	defer srv.Close()
	code, body := scrape(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}
	if !strings.Contains(body, "goroutine") || !strings.Contains(body, "heap") {
		t.Fatalf("/debug/pprof/ index incomplete:\n%s", body)
	}
}

// TestServeBindsEphemeralPort covers the `-obs-addr :0` path the CLIs use.
func TestServeBindsEphemeralPort(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(srv.Addr, ":") || strings.HasSuffix(srv.Addr, ":0") {
		t.Fatalf("Serve did not resolve the ephemeral port: %q", srv.Addr)
	}
	code, _ := scrape(t, "http://"+srv.Addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics on ephemeral server = %d", code)
	}
}
