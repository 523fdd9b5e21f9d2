package admission

import (
	"errors"
	"math"
	"testing"
)

func TestParseTenants(t *testing.T) {
	ts, err := ParseTenants("gold:weight=4,rate=2,burst=8;silver:weight=2;free:weight=1,rate=1")
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	if len(ts) != 3 {
		t.Fatalf("got %d tenants, want 3", len(ts))
	}
	if ts[0].Name != "gold" || ts[0].Weight != 4 || ts[0].Rate != 2 || ts[0].Burst != 8 {
		t.Fatalf("gold parsed as %+v", ts[0])
	}
	if ts[1].Name != "silver" || ts[1].Weight != 2 || ts[1].Rate != 0 {
		t.Fatalf("silver parsed as %+v", ts[1])
	}
	// Rate without burst defaults burst to max(rate, 1).
	if ts[2].Burst != 1 {
		t.Fatalf("free burst = %v, want 1", ts[2].Burst)
	}
	if _, err := ParseTenants("a:weight=0"); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := ParseTenants("a;a"); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, err := ParseTenants("a:bogus=1"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if ts, err := ParseTenants(""); err != nil || ts != nil {
		t.Fatalf("empty spec: %v %v", ts, err)
	}
}

// TestBucketBurstBoundary pins the exact-burst-exhaustion boundary: a bucket
// with burst B admits exactly B back-to-back requests, the (B+1)-th is
// rejected, and one virtual tick later exactly rate more fit.
func TestBucketBurstBoundary(t *testing.T) {
	b := NewBucket(2, 4)
	for i := 0; i < 4; i++ {
		if !b.TryTake() {
			t.Fatalf("take %d within burst rejected", i)
		}
	}
	if b.TryTake() {
		t.Fatal("take beyond burst admitted")
	}
	if b.Tokens() != 0 {
		t.Fatalf("tokens = %v, want 0", b.Tokens())
	}
	// Same tick: still empty. Next tick: rate=2 tokens credited.
	b.Refill(b.Tick())
	if b.TryTake() {
		t.Fatal("same-tick refill credited tokens")
	}
	b.Refill(b.Tick() + 1)
	if !b.TryTake() || !b.TryTake() {
		t.Fatal("refilled tokens not available")
	}
	if b.TryTake() {
		t.Fatal("refill exceeded rate")
	}
	// A long idle gap credits at most burst.
	b.Refill(b.Tick() + 1000)
	if b.Tokens() != 4 {
		t.Fatalf("tokens after idle = %v, want burst cap 4", b.Tokens())
	}
	// Seed clamps to burst and keeps the clock monotone.
	b.Seed(99, b.Tick()-5)
	if b.Tokens() != 4 || b.Tick() != 1001 {
		t.Fatalf("seed gave tokens=%v tick=%d", b.Tokens(), b.Tick())
	}
}

func TestFairQueueFIFOOrder(t *testing.T) {
	ts := []Tenant{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}}
	q := NewFairQueue[int](ts, 4, false)
	for i, tn := range []string{"b", "a", "b", "a"} {
		if err := q.Push(tn, i); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := q.Push("a", 99); !errors.Is(err, ErrQueueSaturated) {
		t.Fatalf("push beyond depth: %v", err)
	}
	for want := 0; want < 4; want++ {
		v, _, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("pop %d got %v ok=%v", want, v, ok)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestFairQueueStarvationFreedom drives a pathological heavy tenant that
// floods the queue and checks that (a) the light tenant always retains queue
// space (per-tenant bound) and (b) service interleaves by weight rather than
// arrival order, so the light tenant is never starved.
func TestFairQueueStarvationFreedom(t *testing.T) {
	ts := []Tenant{{Name: "heavy", Weight: 3}, {Name: "light", Weight: 1}}
	q := NewFairQueue[int](ts, 8, true)
	// The flood: heavy fills its share first.
	flooded := 0
	for i := 0; ; i++ {
		err := q.Push("heavy", i)
		if errors.Is(err, ErrTenantSaturated) {
			break
		}
		if err != nil {
			t.Fatalf("heavy push %d: %v", i, err)
		}
		flooded++
	}
	if flooded >= 8 {
		t.Fatalf("heavy flooded the whole queue (%d entries)", flooded)
	}
	// The light tenant still gets in despite the flood.
	for i := 0; i < q.TenantCap("light"); i++ {
		if err := q.Push("light", 100+i); err != nil {
			t.Fatalf("light push %d rejected during flood: %v", i, err)
		}
	}
	// Drain: DRR must serve light within the first weight-ratio window, not
	// after the whole heavy backlog.
	var order []string
	for {
		_, tn, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, tn)
	}
	firstLight := -1
	for i, tn := range order {
		if tn == "light" {
			firstLight = i
			break
		}
	}
	if firstLight == -1 {
		t.Fatal("light tenant never served")
	}
	// Quantum is 3:1, so light must be served after at most one heavy
	// quantum (3 requests), i.e. within the first 4 pops.
	if firstLight > 3 {
		t.Fatalf("light first served at position %d (order %v)", firstLight, order)
	}
}

// TestFairQueueDeterminism pins that two queues fed the identical push/pop
// sequence produce identical pop orders.
func TestFairQueueDeterminism(t *testing.T) {
	build := func() []int {
		ts := []Tenant{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}, {Name: "c", Weight: 5}}
		q := NewFairQueue[int](ts, 32, true)
		names := []string{"a", "b", "c"}
		var out []int
		for i := 0; i < 48; i++ {
			_ = q.Push(names[i%3], i)
			if i%5 == 4 {
				if v, _, ok := q.Pop(); ok {
					out = append(out, v)
				}
			}
		}
		for {
			v, _, ok := q.Pop()
			if !ok {
				break
			}
			out = append(out, v)
		}
		return out
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pop %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// FuzzParseTenants feeds arbitrary specs to ParseTenants: it may refuse one,
// but every tenant it accepts has a positive, finite weight and a finite,
// non-negative rate and burst — a non-finite quota cannot be journaled, so
// accepting one would serve requests whose epochs never reach the WAL.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		"a:rate=Inf",
		"a:burst=NaN",
		"gold:weight=4,rate=2,burst=8;silver:weight=2;free:weight=1,rate=1",
		"a:weight=1e308,rate=1e308",
		"a:rate=-0;b:burst=+Inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := ParseTenants(spec)
		if err != nil {
			return
		}
		for _, tn := range ts {
			finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
			if !(tn.Weight > 0 && finite(tn.Weight) && tn.Rate >= 0 && finite(tn.Rate) && tn.Burst >= 0 && finite(tn.Burst)) {
				t.Errorf("%q: accepted tenant %+v", spec, tn)
			}
		}
	})
}
