package obs

import (
	"encoding/json"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "solver", "ILP")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "solver", "ILP"); again != c {
		t.Fatal("get-or-create returned a different counter instance")
	}
	// A different label combination is a different instance of the family.
	if other := r.Counter("requests_total", "solver", "Greedy"); other == c {
		t.Fatal("distinct labels must yield distinct counters")
	}

	g := r.Gauge("active")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2.0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=0.1 is inclusive: 0.05 and 0.1 land in bucket 0.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-55.65) > 1e-9 {
		t.Fatalf("sum = %v, want 55.65", s.Sum)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter family as a gauge must panic")
		}
	}()
	r.Gauge("x_total")
}

func TestOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list must panic")
		}
	}()
	r.Counter("x_total", "solver")
}

// TestRegistryConcurrency hammers one registry from 16 goroutines doing
// mixed get-or-create and record operations on shared and per-goroutine
// metrics. It is primarily a race-detector test (`make test-race`), but the
// final counts are asserted too.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const ops = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := string(rune('a' + g))
			for i := 0; i < ops; i++ {
				r.Counter("shared_total").Inc()
				r.Counter("per_goroutine_total", "g", own).Inc()
				r.Gauge("shared_gauge").Set(float64(i))
				r.Histogram("shared_hist", CountBuckets).Observe(float64(i % 100))
				sp := r.StartSpan("work", "g", own)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != goroutines*ops {
		t.Fatalf("shared_total = %d, want %d", got, goroutines*ops)
	}
	if got := r.Histogram("shared_hist", nil).Count(); got != goroutines*ops {
		t.Fatalf("shared_hist count = %d, want %d", got, goroutines*ops)
	}
	for g := 0; g < goroutines; g++ {
		own := string(rune('a' + g))
		if got := r.Counter("per_goroutine_total", "g", own).Value(); got != ops {
			t.Fatalf("per_goroutine_total{g=%s} = %d, want %d", own, got, ops)
		}
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("solve", "solver", "ILP")
	if d := sp.End(); d < 0 {
		t.Fatalf("negative span duration %v", d)
	}
	h := r.Histogram("span_duration_seconds", nil, "span", "solve", "solver", "ILP")
	if h.Count() != 1 {
		t.Fatalf("span histogram count = %d, want 1", h.Count())
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
}

func TestManifestWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("trials_total").Add(20)
	m := NewManifest("experiments")
	m.Seed = 42
	m.Trials = 20
	m.Solvers = []string{"ILP", "Heuristic"}
	m.Add(RunRecord{Name: "fig1", Label: "8", X: 8, Solver: "ILP", Trials: 20, Outcome: "ok", MeanMS: 1.5})
	m.Add(RunRecord{Name: "fig1", Label: "8", X: 8, Solver: "Heuristic", Trials: 20, Outcome: "ok"})

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]interface{}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back["command"] != "experiments" {
		t.Fatalf("command = %v", back["command"])
	}
	runs, ok := back["runs"].([]interface{})
	if !ok || len(runs) != 2 {
		t.Fatalf("runs = %v", back["runs"])
	}
	metrics, ok := back["metrics"].(map[string]interface{})
	if !ok {
		t.Fatalf("metrics missing: %v", back["metrics"])
	}
	if metrics["trials_total"] != float64(20) {
		t.Fatalf("metrics snapshot lost the counter: %v", metrics)
	}
	if !strings.Contains(string(data), "go_version") {
		t.Fatal("manifest must record the Go version")
	}
}

func TestPrometheusTextRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("solve_total", "solver", "ILP").Add(3)
	r.Gauge("last_objective").Set(1.25)
	h := r.Histogram("dur_seconds", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE solve_total counter",
		`solve_total{solver="ILP"} 3`,
		"# TYPE last_objective gauge",
		"last_objective 1.25",
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{le="0.001"} 1`,
		`dur_seconds_bucket{le="0.1"} 2`,
		`dur_seconds_bucket{le="+Inf"} 3`,
		"dur_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestLabelValuesEscapeOnce renders a tenant name holding a quote, a
// backslash and a newline: the text format escapes each once, so the sample
// line reads back as the name it was given.
func TestLabelValuesEscapeOnce(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve_admitted_total", "tenant", "a\"b\\c\nd").Add(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `serve_admitted_total{tenant="a\"b\\c\nd"} 2`; !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %s:\n%s", want, b.String())
	}
	if r.Counter("serve_admitted_total", "tenant", "a\"b\\c\nd").Value() != 2 {
		t.Fatal("the same label value resolved to another counter")
	}
}

// BenchmarkSpanStart measures the per-call price of StartSpan: a label-slice
// allocation plus a registry lookup per call.
func BenchmarkSpanStart(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan("bench_stage", "path", "hot")
		sp.End()
	}
}

// BenchmarkSpanHandleStart measures the same span timed through a
// pre-resolved SpanHandle — the lookup and allocation are paid once outside
// the loop, which is why the serve batch path uses handles.
func BenchmarkSpanHandleStart(b *testing.B) {
	r := NewRegistry()
	h := r.SpanHandle("bench_stage", "path", "hot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := h.Start()
		sp.End()
	}
}
