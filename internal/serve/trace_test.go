package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceService builds a generously provisioned service with tracing on.
func traceService(t *testing.T, opt Options) *Service {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	svc, err := New(testNetwork(1000), opt)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func postAugment(t *testing.T, h http.Handler, path string, ar AugmentRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(ar)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestTraceHeaderAndEcho(t *testing.T) {
	svc := traceService(t, Options{})
	defer svc.Drain()
	h := svc.Handler()

	// Plain request: X-Trace-Id set, no trace body.
	w := postAugment(t, h, "/v1/augment", testRequest(0))
	id := w.Header().Get("X-Trace-Id")
	if len(id) != 16 {
		t.Fatalf("X-Trace-Id = %q, want 16 hex digits", id)
	}
	var resp AugmentResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatal("trace echoed without ?trace=1")
	}

	// ?trace=1 echoes the span timeline.
	w = postAugment(t, h, "/v1/augment?trace=1", testRequest(1))
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("?trace=1 did not echo the trace")
	}
	if resp.Trace.TraceID != w.Header().Get("X-Trace-Id") {
		t.Fatalf("echoed trace ID %s != header %s", resp.Trace.TraceID, w.Header().Get("X-Trace-Id"))
	}
	names := make(map[string]bool)
	for _, sp := range resp.Trace.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"request", "queue", "exec", "admit", "solve", "commit", "gate_wait"} {
		if !names[want] {
			t.Fatalf("trace missing %q span: %+v", want, resp.Trace.Spans)
		}
	}

	// The flight recorder holds both completed traces, served at /debug/traces.
	req := httptest.NewRequest(http.MethodGet, "/debug/traces", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", rec.Code)
	}
	if got := svc.FlightRecorder().Total(); got != 2 {
		t.Fatalf("flight recorder holds %d traces, want 2", got)
	}
}

func TestTraceDisabled(t *testing.T) {
	svc := traceService(t, Options{TraceDepth: -1})
	defer svc.Drain()
	h := svc.Handler()
	w := postAugment(t, h, "/v1/augment?trace=1", testRequest(0))
	if got := w.Header().Get("X-Trace-Id"); got != "" {
		t.Fatalf("X-Trace-Id = %q with tracing disabled", got)
	}
	if svc.FlightRecorder() != nil {
		t.Fatal("flight recorder allocated with tracing disabled")
	}
	req := httptest.NewRequest(http.MethodGet, "/debug/traces", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /debug/traces = %d with tracing disabled, want 404", rec.Code)
	}
}

func TestTraceIDStableAcrossServices(t *testing.T) {
	a := traceService(t, Options{Seed: 42})
	b := traceService(t, Options{Seed: 42})
	defer a.Drain()
	defer b.Drain()
	if a.traceID(7) != b.traceID(7) {
		t.Fatal("trace IDs must be pure functions of (seed, seq)")
	}
	if a.traceID(7) == a.traceID(8) {
		t.Fatal("adjacent sequences collided")
	}
	c := traceService(t, Options{Seed: 43})
	defer c.Drain()
	if a.traceID(7) == c.traceID(7) {
		t.Fatal("different seeds must yield different trace IDs")
	}
}

func TestTraceWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "req.trace")
	tw, err := OpenTraceWriter(path, TraceOp{Seed: 9, Solver: "Failsafe", HopBound: 1, AdmitPolicy: AdmitRandom})
	if err != nil {
		t.Fatal(err)
	}
	tw.Record(TraceOp{Op: OpAugment, Seq: 1, SFC: []int{0, 1}, Expectation: 0.9, Source: 0, Destination: 2})
	tw.Record(TraceOp{Op: OpRelease, ID: 1})
	if err := tw.CloseWith(TraceOp{Hash: "00000000deadbeef", Placed: 1, Epoch: 3}); err != nil {
		t.Fatal(err)
	}

	meta, ops, eof, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seed != 9 || meta.Solver != "Failsafe" || meta.HopBound != 1 || meta.AdmitPolicy != AdmitRandom {
		t.Fatalf("meta = %+v", meta)
	}
	if len(ops) != 2 || ops[0].Op != OpAugment || ops[0].Seq != 1 || ops[1].Op != OpRelease || ops[1].ID != 1 {
		t.Fatalf("ops = %+v", ops)
	}
	if eof == nil || eof.Hash != "00000000deadbeef" || eof.Placed != 1 || eof.Ops != 2 {
		t.Fatalf("eof = %+v", eof)
	}
	if ops[1].AtUS < ops[0].AtUS {
		t.Fatalf("op offsets must be monotone: %d then %d", ops[0].AtUS, ops[1].AtUS)
	}
}

func TestReadTraceTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "req.trace")
	tw, err := OpenTraceWriter(path, TraceOp{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tw.Record(TraceOp{Op: OpAugment, Seq: 1, SFC: []int{0}, Expectation: 0.9})
	if err := tw.CloseWith(TraceOp{Hash: "aa"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Torn final frame (crash mid-append): tolerated, trailer lost.
	torn := raw[:len(raw)-4]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ops, eof, err := ReadTrace(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(ops) != 1 || eof != nil {
		t.Fatalf("torn tail: ops=%d eof=%v", len(ops), eof)
	}

	// Corrupt frame before an intact one: data loss, must error.
	lines := strings.SplitAfter(string(raw), "\n")
	lines[1] = "deadbeef {corrupt}\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadTrace(path); err == nil {
		t.Fatal("mid-file corruption must be an error")
	}
}

func TestAdvanceSeq(t *testing.T) {
	svc := traceService(t, Options{})
	defer svc.Drain()
	svc.AdvanceSeq(10)
	tk, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	if tk.p.seq != 11 {
		t.Fatalf("seq after AdvanceSeq(10) = %d, want 11", tk.p.seq)
	}
	tk.Wait()
	svc.AdvanceSeq(5) // never moves backwards
	tk2, err := svc.Enqueue(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if tk2.p.seq != 12 {
		t.Fatalf("seq after backwards AdvanceSeq = %d, want 12", tk2.p.seq)
	}
	tk2.Wait()
}
