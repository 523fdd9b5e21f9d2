package obs

import "time"

// Span times one logical operation — a trial, a solver call, a figure
// sweep — into the registry's span_duration_seconds histogram, labeled by
// span name. It is a value type: StartSpan costs one registry lookup and a
// clock read, End one histogram observe. Spans do not nest or propagate
// context; for this repo's flat call shapes (trial → solves) that is all the
// tracing needed, at a price payable inside hot loops.
//
//	sp := obs.Default().StartSpan("experiments_sweep", "fig", "fig1")
//	... work ...
//	sp.End()
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing a span with the given name and optional label
// pairs.
func (r *Registry) StartSpan(name string, labels ...string) Span {
	return Span{
		h:     r.Histogram("span_duration_seconds", DurationBuckets, append([]string{"span", name}, labels...)...),
		start: time.Now(),
	}
}

// End records the elapsed time and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	return d
}

// SpanHandle is a pre-resolved span timer for hot loops: the registry
// lookup and the label-slice allocation StartSpan pays per call are paid
// once at handle construction, so Start costs exactly one clock read.
// BenchmarkSpanStart vs BenchmarkSpanHandleStart pins the gap; the serve
// batch path times its pipeline stages through handles resolved at package
// init (internal/serve/metrics.go).
type SpanHandle struct {
	h *Histogram
}

// SpanHandle resolves the span_duration_seconds histogram for the given
// span name and label pairs once, returning a handle whose Start allocates
// nothing.
func (r *Registry) SpanHandle(name string, labels ...string) SpanHandle {
	return SpanHandle{
		h: r.Histogram("span_duration_seconds", DurationBuckets, append([]string{"span", name}, labels...)...),
	}
}

// Start begins timing a span on the pre-resolved histogram.
func (s SpanHandle) Start() Span { return Span{h: s.h, start: time.Now()} }

// Observe records an externally measured duration on the handle's
// histogram — for stages whose boundaries are stamped once per batch rather
// than timed per call.
func (s SpanHandle) Observe(d time.Duration) { s.h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since start into h — the
// convenience the instrumented packages use when a Span value is overkill.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
