// Package trace is the request-lifecycle tracing layer of the observability
// stack: per-request traces made of nested stage spans (parent links,
// explicit start/end timestamps) plus an in-memory ring-buffer flight
// recorder that keeps the last N completed traces and serves them as JSON.
//
// It complements internal/obs rather than replacing it: obs histograms
// aggregate (p50 of every solve), a trace explains one request (this solve
// waited 3ms at the commit gate behind batch 17). The serving layer
// (internal/serve) builds one Trace per admitted request, stamps a span per
// pipeline stage — queue, exec(admit/solve/commit), gate_wait, wal_fsync —
// and hands the completed trace to the Recorder, which /debug/traces and the
// X-Trace-Id / ?trace=1 response surface expose.
//
// Concurrency contract: a *Trace is owned by one goroutine at a time and
// handed off through synchronizing channels (the serving queue), so its
// methods take no locks. The Recorder is fully concurrency-safe — completed
// traces arrive from batcher goroutines while HTTP readers snapshot the
// ring.
//
// Determinism: tracing observes, it never steers. Trace IDs are pure
// functions of the admission sequence, timestamps are recorded outside every
// seeded closure, and nothing here feeds back into solver decisions — traced
// runs stay bit-identical to untraced ones.
package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Root is the span index of every trace's root span.
const Root = 0

// Span is one timed stage within a trace. Parent links spans into a tree:
// the root span has Parent -1, every other span points at the index of its
// enclosing stage.
type Span struct {
	Name   string
	Parent int
	Start  time.Time
	End    time.Time // zero until the span is ended
	Note   string    // optional annotation (e.g. "solved", "conflict_resolve")
}

// Trace is one request's lifecycle: a root span plus nested stage spans.
// Spans are identified by their index; Root (0) is the root span.
type Trace struct {
	id    uint64
	seq   int
	spans []Span
}

// New starts a trace: the root span is named rootName and opens at start.
// The id should be unique per request (the serving layer derives it from the
// admission sequence so a replayed request carries the recorded run's ID).
func New(id uint64, seq int, rootName string, start time.Time) *Trace {
	t := &Trace{id: id, seq: seq, spans: make([]Span, 1, 12)}
	t.spans[0] = Span{Name: rootName, Parent: -1, Start: start}
	return t
}

// ID returns the trace ID.
func (t *Trace) ID() uint64 { return t.id }

// HexID renders the trace ID as the 16-digit hex string used by the
// X-Trace-Id header and /debug/traces.
func (t *Trace) HexID() string { return fmt.Sprintf("%016x", t.id) }

// Seq returns the admission sequence number the trace was created for.
func (t *Trace) Seq() int { return t.seq }

// StartSpan opens a child span of parent at time.Now and returns its index.
func (t *Trace) StartSpan(name string, parent int) int {
	return t.StartSpanAt(name, parent, time.Now())
}

// StartSpanAt opens a child span of parent with an explicit start timestamp
// — the batch path stamps one measured boundary into every request of the
// batch instead of paying a clock read per request.
func (t *Trace) StartSpanAt(name string, parent int, at time.Time) int {
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: at})
	return len(t.spans) - 1
}

// EndSpanAt closes span i with an explicit end timestamp.
func (t *Trace) EndSpanAt(i int, at time.Time) { t.spans[i].End = at }

// Annotate attaches a note to span i; repeated notes join with commas.
func (t *Trace) Annotate(i int, note string) {
	if t.spans[i].Note == "" {
		t.spans[i].Note = note
		return
	}
	t.spans[i].Note += "," + note
}

// Spans returns the trace's spans (the live slice — callers must not retain
// it past the trace's ownership hand-off; Snapshot copies).
func (t *Trace) Spans() []Span { return t.spans }

// SpanSnapshot is the JSON view of one span: offsets are microseconds from
// the trace's root start, so a timeline reads without timestamp arithmetic.
type SpanSnapshot struct {
	Span       int    `json:"span"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	Note       string `json:"note,omitempty"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
}

// Snapshot is the immutable JSON view of a completed trace — the flight
// recorder's unit of storage and the ?trace=1 response payload.
type Snapshot struct {
	TraceID    string         `json:"trace_id"`
	Seq        int            `json:"seq"`
	Start      time.Time      `json:"start"`
	DurationUS int64          `json:"duration_us"`
	Spans      []SpanSnapshot `json:"spans"`
}

// Snapshot deep-copies the trace into its JSON view. Spans never ended
// inherit the root's end (or, if the root is open too, report zero
// duration) so a snapshot of a half-finished trace is still well-formed.
func (t *Trace) Snapshot() Snapshot {
	root := t.spans[0]
	end := root.End
	s := Snapshot{
		TraceID: t.HexID(),
		Seq:     t.seq,
		Start:   root.Start,
		Spans:   make([]SpanSnapshot, len(t.spans)),
	}
	if !end.IsZero() {
		s.DurationUS = end.Sub(root.Start).Microseconds()
	}
	for i, sp := range t.spans {
		spEnd := sp.End
		if spEnd.IsZero() {
			spEnd = end
		}
		ss := SpanSnapshot{
			Span:    i,
			Parent:  sp.Parent,
			Name:    sp.Name,
			Note:    sp.Note,
			StartUS: sp.Start.Sub(root.Start).Microseconds(),
		}
		if !spEnd.IsZero() {
			ss.DurationUS = spEnd.Sub(sp.Start).Microseconds()
		}
		s.Spans[i] = ss
	}
	return s
}

// Recorder is the flight recorder: a fixed-capacity ring of the most recent
// completed trace snapshots. Memory is bounded by the capacity — recording
// the (N+1)-th trace overwrites the oldest — and every method is safe for
// concurrent use.
type Recorder struct {
	capN  int // immutable after construction; read without the lock
	mu    sync.Mutex
	ring  []Snapshot
	next  int
	total uint64
}

// NewRecorder returns a flight recorder keeping the last n completed traces.
// n <= 0 yields a recorder that drops everything (Record is a no-op).
func NewRecorder(n int) *Recorder {
	if n < 0 {
		n = 0
	}
	return &Recorder{capN: n, ring: make([]Snapshot, 0, n)}
}

// Cap returns the recorder's capacity.
func (r *Recorder) Cap() int { return r.capN }

// Total returns how many traces were ever recorded (including overwritten
// ones).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Record stores a completed trace, overwriting the oldest when full.
func (r *Recorder) Record(s Snapshot) {
	if r.capN == 0 {
		return
	}
	r.mu.Lock()
	if len(r.ring) < r.capN {
		r.ring = append(r.ring, s)
	} else {
		r.ring[r.next] = s
	}
	r.next = (r.next + 1) % r.capN
	r.total++
	r.mu.Unlock()
}

// Snapshots returns the recorded traces, newest first.
func (r *Recorder) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, len(r.ring))
	// The newest entry sits just before next (ring order); walk backwards.
	for i := 0; i < len(r.ring); i++ {
		idx := (r.next - 1 - i + 2*len(r.ring)) % len(r.ring)
		out = append(out, r.ring[idx])
	}
	return out
}

// tracesResponse is the JSON body of GET /debug/traces.
type tracesResponse struct {
	Capacity int        `json:"capacity"`
	Recorded uint64     `json:"recorded"`
	Returned int        `json:"returned"`
	Traces   []Snapshot `json:"traces"`
}

// Handler serves the flight recorder as JSON: the most recent traces,
// newest first. `?n=K` limits the count; `?id=<hex>` returns only the trace
// with that X-Trace-Id (if still in the ring).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		traces := r.Snapshots()
		if id := req.URL.Query().Get("id"); id != "" {
			kept := traces[:0]
			for _, t := range traces {
				if t.TraceID == id {
					kept = append(kept, t)
				}
			}
			traces = kept
		}
		if nStr := req.URL.Query().Get("n"); nStr != "" {
			if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(traces) {
				traces = traces[:n]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tracesResponse{
			Capacity: r.Cap(),
			Recorded: r.Total(),
			Returned: len(traces),
			Traces:   traces,
		})
	})
}
