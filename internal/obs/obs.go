// Package obs is the repo's stdlib-only observability layer: a
// concurrency-safe registry of counters, gauges, and fixed-bucket histograms,
// Prometheus-text and JSON exposition writers, a lightweight span/timer API,
// slog-based structured run logging, and an HTTP server exposing /metrics,
// /debug/vars (expvar), and /debug/pprof.
//
// Design constraints, in order:
//
//   - Stdlib only. No prometheus/client_golang, no OpenTelemetry; the
//     exposition format is the Prometheus text format v0.0.4 subset that
//     every scraper understands.
//   - Cheap on the hot path. A counter increment is one atomic add
//     (BenchmarkObsRegistry pins it under 100ns/op including the registry
//     lookup; callers that hold the *Counter pay only the add). Histograms
//     observe with a binary search over ~a dozen bounds plus three atomics.
//   - Deterministic-neutral. Nothing in this package draws from the
//     experiment rngs or feeds back into solver decisions, so instrumented
//     runs are bit-identical to uninstrumented ones (see DESIGN.md).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus contract; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with inclusive upper bounds
// (Prometheus `le` semantics). The +Inf bucket is implicit. Observe touches
// only atomics.
type Histogram struct {
	bounds  []float64       // strictly increasing upper bounds
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state. Counts
// are per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram state. Buckets are read individually, so a
// snapshot taken during concurrent observes may be off by in-flight samples —
// fine for exposition, which is inherently a sample.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// ExpBuckets returns n exponentially spaced bounds start, start*factor, ....
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets requires start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linearly spaced bounds start, start+width, ....
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n <= 0 {
		panic("obs: LinearBuckets requires width > 0, n > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// DurationBuckets spans 100µs to ~100s exponentially — wide enough for both
// a single simplex pivot and a full ILP component search.
var DurationBuckets = ExpBuckets(100e-6, 4, 11)

// CountBuckets spans 1 to ~1M exponentially — for pivot and node counts.
var CountBuckets = ExpBuckets(1, 4, 11)

// RatioBuckets covers [0,1] in tenths — for utilization-style ratios.
var RatioBuckets = LinearBuckets(0.1, 0.1, 10)

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric instance (one label combination).
type entry struct {
	base   string // metric family name, no labels
	labels string // rendered `k="v",k2="v2"`, or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. All methods are safe for concurrent use;
// the getters create on first use and return the same instance thereafter
// (get-or-create), so callers may re-resolve on every operation or cache the
// returned pointer — caching skips the map lookup on the hot path.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry     // key: base{labels}
	kinds   map[string]metricKind // key: base — one kind per family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		kinds:   make(map[string]metricKind),
	}
}

// defaultRegistry is the process-wide registry the instrumented packages
// (engine, core, batch, des) record into and the CLIs expose.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// fullName renders the registry key for a metric family plus label pairs,
// name{k="v",k2="v2"}, and the part between the braces. labels alternate
// key, value; each value is escaped once, as the Prometheus text format
// asks: `\` → `\\`, `"` → `\"`, newline → `\n`.
func fullName(name string, labels []string) (full, rendered string) {
	if name == "" {
		panic("obs: metric name must be non-empty")
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q has odd label list %v", name, labels))
	}
	if len(labels) == 0 {
		return name, ""
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, labels[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	full = b.String()
	return full, full[len(name)+1 : len(full)-1]
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// lookup returns the entry for (name, labels), creating it with mk on first
// use. It panics if the family is already registered with a different kind —
// that is always a programming error, and silently returning the wrong type
// would corrupt the exposition.
func (r *Registry) lookup(kind metricKind, name string, labels []string, mk func() *entry) *entry {
	full, rendered := fullName(name, labels)
	r.mu.RLock()
	e, ok := r.entries[full]
	r.mu.RUnlock()
	if ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q is a %s, requested as %s", full, e.kind, kind))
		}
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.entries[full]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q is a %s, requested as %s", full, e.kind, kind))
		}
		return e
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric family %q is a %s, requested as %s", name, k, kind))
	}
	e = mk()
	e.base = name
	e.labels = rendered
	e.kind = kind
	r.entries[full] = e
	r.kinds[name] = kind
	return e
}

// Counter returns the counter for name plus label pairs, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(kindCounter, name, labels, func() *entry {
		return &entry{c: &Counter{}}
	}).c
}

// Gauge returns the gauge for name plus label pairs, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(kindGauge, name, labels, func() *entry {
		return &entry{g: &Gauge{}}
	}).g
}

// Histogram returns the histogram for name plus label pairs, creating it on
// first use with the given bucket bounds (strictly increasing; the +Inf
// bucket is implicit). The bounds of the first registration win for the
// whole family; later calls may pass nil.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	return r.lookup(kindHistogram, name, labels, func() *entry {
		if len(bounds) == 0 {
			bounds = DurationBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing: %v", name, bounds))
			}
		}
		b := append([]float64(nil), bounds...)
		return &entry{h: &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}}
	}).h
}

// sortedEntries returns the entries ordered by (family, labels) for stable
// exposition output.
func (r *Registry) sortedEntries() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].base != out[j].base {
			return out[i].base < out[j].base
		}
		return out[i].labels < out[j].labels
	})
	return out
}
