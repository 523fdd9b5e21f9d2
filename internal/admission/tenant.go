package admission

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DefaultTenant is the catch-all principal: requests that carry no tenant
// ID, or an ID that matches no configured tenant, are accounted against it.
const DefaultTenant = "default"

// Tenant describes one admission-economics principal: a share of the fair
// queue (Weight) and an optional token-bucket quota (Rate tokens per virtual
// batch tick, bucket capacity Burst). A zero Rate means the tenant is not
// rate-limited. Weight must be positive.
type Tenant struct {
	// Name identifies the tenant; requests carry it in their "tenant" field.
	Name string
	// Weight is the deficit-round-robin share and the multiplier applied to
	// the request's log-gain during knapsack admission.
	Weight float64
	// Rate is the quota refill in tokens per virtual batch tick (one tick
	// per BatchSize admission sequence numbers). Zero disables the quota.
	Rate float64
	// Burst is the token-bucket capacity. Defaults to max(Rate, 1) when a
	// Rate is set but no Burst is given.
	Burst float64
}

// Validate refuses a tenant the service cannot account for: an empty name,
// a weight that is not positive and finite, or a rate or burst that is not
// finite and non-negative (a non-finite quota cannot be journaled).
func (t Tenant) Validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case t.Name == "":
		return errors.New("admission: tenant has no name")
	case !(t.Weight > 0) || !finite(t.Weight):
		return fmt.Errorf("admission: tenant %q: weight must be positive and finite", t.Name)
	case !(t.Rate >= 0 && t.Burst >= 0) || !finite(t.Rate) || !finite(t.Burst):
		return fmt.Errorf("admission: tenant %q: rate and burst must be finite and non-negative", t.Name)
	}
	return nil
}

// ParseTenants parses a CLI tenant specification of the form
//
//	name[:key=value[,key=value...]][;name...]
//
// where key is one of weight, rate, burst — for example
// "gold:weight=4,rate=2,burst=8;silver:weight=2;free:weight=1,rate=1".
// Omitted weights default to 1; a rate without a burst gets max(rate, 1).
// An empty spec yields no tenants (the server then runs with the implicit
// default tenant only).
func ParseTenants(spec string) ([]Tenant, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Tenant
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, attrs, _ := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("admission: tenant entry %q has no name", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("admission: duplicate tenant %q", name)
		}
		seen[name] = true
		t := Tenant{Name: name, Weight: 1}
		for _, kv := range strings.Split(attrs, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("admission: tenant %q: attribute %q is not key=value", name, kv)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("admission: tenant %q: attribute %q: %v", name, kv, err)
			}
			switch strings.TrimSpace(key) {
			case "weight":
				t.Weight = f
			case "rate":
				t.Rate = f
			case "burst":
				t.Burst = f
			default:
				return nil, fmt.Errorf("admission: tenant %q: unknown attribute %q", name, key)
			}
		}
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if t.Rate > 0 && t.Burst == 0 {
			t.Burst = math.Max(t.Rate, 1)
		}
		out = append(out, t)
	}
	return out, nil
}

// Bucket is a deterministic token bucket. It is refilled on an externally
// supplied virtual clock — the serving layer uses the admission sequence
// number divided by the batch size — so that quota decisions are a pure
// function of the admission order and trace replay reproduces them
// bit-identically regardless of wall-clock timing.
type Bucket struct {
	rate   float64
	burst  float64
	tokens float64
	tick   int64
}

// NewBucket returns a full bucket with the given refill rate (tokens per
// tick) and capacity.
func NewBucket(rate, burst float64) *Bucket {
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

// Refill advances the bucket's virtual clock to tick, crediting
// rate×elapsed tokens up to the burst capacity. Ticks earlier than the
// bucket's current clock are ignored (the clock is monotone).
func (b *Bucket) Refill(tick int64) {
	if tick <= b.tick {
		return
	}
	b.tokens = math.Min(b.burst, b.tokens+b.rate*float64(tick-b.tick))
	b.tick = tick
}

// TryTake consumes one token if at least one is available and reports
// whether it did.
func (b *Bucket) TryTake() bool {
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current token balance.
func (b *Bucket) Tokens() float64 { return b.tokens }

// Tick returns the bucket's current virtual-clock position.
func (b *Bucket) Tick() int64 { return b.tick }

// Seed restores a journaled bucket state (token balance and clock) after a
// WAL replay, clamped to the configured burst capacity.
func (b *Bucket) Seed(tokens float64, tick int64) {
	b.tokens = math.Min(b.burst, math.Max(0, tokens))
	if tick > b.tick {
		b.tick = tick
	}
}

// Queueing errors returned by FairQueue.Push. The serving layer maps both
// to HTTP 429 but distinguishes them in metrics.
var (
	// ErrQueueSaturated reports that the global queue bound is reached.
	ErrQueueSaturated = errors.New("admission: queue full")
	// ErrTenantSaturated reports that the tenant's fair-share sub-queue
	// bound is reached (only enforced in fair/knapsack disciplines).
	ErrTenantSaturated = errors.New("admission: tenant sub-queue full")
)

type fairEntry[T any] struct {
	v       T
	arrival int64
}

type subQueue[T any] struct {
	name    string
	quantum float64
	cap     int
	deficit float64
	items   []fairEntry[T]
	head    int
}

func (s *subQueue[T]) len() int { return len(s.items) - s.head }

func (s *subQueue[T]) push(e fairEntry[T]) {
	if s.head > 0 && s.head == len(s.items) {
		s.items = s.items[:0]
		s.head = 0
	}
	s.items = append(s.items, e)
}

func (s *subQueue[T]) pop() fairEntry[T] {
	e := s.items[s.head]
	var zero fairEntry[T]
	s.items[s.head] = zero
	s.head++
	if s.head == len(s.items) {
		s.items = s.items[:0]
		s.head = 0
	}
	return e
}

// FairQueue is a bounded multi-tenant admission queue. In FIFO mode it
// preserves global arrival order exactly (the pre-tenant discipline); in
// fair mode it runs deficit round-robin over per-tenant sub-queues with
// quantum proportional to tenant weight, and additionally bounds each
// sub-queue to its fair share of the global depth so a flooding tenant can
// never starve the others out of queue space.
//
// FairQueue is not safe for concurrent use; the serving layer serializes
// access under its queue mutex. All operations are deterministic functions
// of the push/pop sequence.
type FairQueue[T any] struct {
	fair    bool
	depth   int
	size    int
	arrival int64
	subs    []*subQueue[T]
	byName  map[string]int
	cur     int
	granted bool
}

// NewFairQueue builds a queue bounded to depth entries over the given
// tenants (order is preserved for the round-robin scan; callers should pass
// a deterministic order). When fair is false the queue degenerates to a
// single global FIFO and per-tenant bounds are not enforced. Tenants must be
// non-empty and depth positive.
func NewFairQueue[T any](tenants []Tenant, depth int, fair bool) *FairQueue[T] {
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: DefaultTenant, Weight: 1}}
	}
	q := &FairQueue[T]{
		fair:   fair,
		depth:  depth,
		byName: make(map[string]int, len(tenants)),
	}
	minW := math.Inf(1)
	sumW := 0.0
	for _, t := range tenants {
		minW = math.Min(minW, t.Weight)
		sumW += t.Weight
	}
	for _, t := range tenants {
		capN := depth
		if fair && len(tenants) > 1 {
			capN = int(math.Round(float64(depth) * t.Weight / sumW))
			if capN < 1 {
				capN = 1
			}
		}
		q.byName[t.Name] = len(q.subs)
		q.subs = append(q.subs, &subQueue[T]{
			name:    t.Name,
			quantum: t.Weight / minW,
			cap:     capN,
		})
	}
	return q
}

// Push enqueues v for the named tenant. It returns ErrQueueSaturated when
// the global depth bound is reached, ErrTenantSaturated when the tenant's
// fair-share bound is reached in fair mode, and an error for unknown
// tenants (callers resolve names against the configured set first).
func (q *FairQueue[T]) Push(tenant string, v T) error {
	idx, ok := q.byName[tenant]
	if !ok {
		return fmt.Errorf("admission: unknown tenant %q", tenant)
	}
	if q.size >= q.depth {
		return ErrQueueSaturated
	}
	s := q.subs[idx]
	if q.fair && s.len() >= s.cap {
		return ErrTenantSaturated
	}
	q.arrival++
	s.push(fairEntry[T]{v: v, arrival: q.arrival})
	q.size++
	return nil
}

// Pop dequeues the next entry under the configured discipline, returning
// the value, the owning tenant's name, and false when the queue is empty.
func (q *FairQueue[T]) Pop() (T, string, bool) {
	var zero T
	if q.size == 0 {
		return zero, "", false
	}
	if !q.fair {
		// Global FIFO: pop the oldest head across sub-queues.
		best := -1
		for i, s := range q.subs {
			if s.len() == 0 {
				continue
			}
			if best == -1 || s.items[s.head].arrival < q.subs[best].items[q.subs[best].head].arrival {
				best = i
			}
		}
		s := q.subs[best]
		e := s.pop()
		q.size--
		return e.v, s.name, true
	}
	// Deficit round-robin: the first pop of each visit to a backlogged
	// tenant grants its quantum (normalized so the lightest tenant's
	// quantum is 1); each request costs one unit, and the cursor moves on
	// when the deficit is spent. Empty tenants forfeit their deficit.
	for {
		s := q.subs[q.cur]
		if s.len() == 0 {
			s.deficit = 0
			q.advance()
			continue
		}
		if !q.granted {
			s.deficit += s.quantum
			q.granted = true
		}
		if s.deficit < 1 {
			q.advance()
			continue
		}
		s.deficit--
		e := s.pop()
		q.size--
		if s.len() == 0 {
			s.deficit = 0
			q.advance()
		}
		return e.v, s.name, true
	}
}

func (q *FairQueue[T]) advance() {
	q.cur = (q.cur + 1) % len(q.subs)
	q.granted = false
}

// Len returns the total number of queued entries.
func (q *FairQueue[T]) Len() int { return q.size }

// TenantLen returns the number of queued entries for the named tenant
// (zero for unknown names).
func (q *FairQueue[T]) TenantLen(tenant string) int {
	idx, ok := q.byName[tenant]
	if !ok {
		return 0
	}
	return q.subs[idx].len()
}

// TenantCap returns the per-tenant sub-queue bound enforced in fair mode
// (the global depth in FIFO mode; zero for unknown names).
func (q *FairQueue[T]) TenantCap(tenant string) int {
	idx, ok := q.byName[tenant]
	if !ok {
		return 0
	}
	return q.subs[idx].cap
}

// Names returns the configured tenant names in round-robin order.
func (q *FairQueue[T]) Names() []string {
	out := make([]string, len(q.subs))
	for i, s := range q.subs {
		out[i] = s.name
	}
	return out
}

// SortTenants orders tenant specs by name for deterministic round-robin
// scans, returning the same slice.
func SortTenants(ts []Tenant) []Tenant {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Name < ts[j].Name })
	return ts
}
