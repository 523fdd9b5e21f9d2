package watchdog

import (
	"sync"
	"testing"
	"time"
)

// testClock is an injectable clock the dedup tests advance by hand.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// newTestAlerter returns an alerter with a hand-driven clock and a recorder
// handler capturing every fired transition.
func newTestAlerter(cfg Config) (*Alerter, *testClock, *[]Transition) {
	clock := &testClock{now: time.Unix(1000, 0)}
	var fired []Transition
	var mu sync.Mutex
	cfg.Now = clock.Now
	cfg.Handler = func(t Transition) {
		mu.Lock()
		fired = append(fired, t)
		mu.Unlock()
	}
	return New(cfg), clock, &fired
}

func TestSessionLevelTransitions(t *testing.T) {
	// WarnFactor 1.05, CritFactor 1.0, hysteresis 0.02: with ρ = 0.9 the
	// bands are CRIT < 0.9, WARN < 0.945, OK above — but a recovering value
	// must additionally clear threshold·1.02 to downgrade.
	cases := []struct {
		name string
		us   []float64
		want []Level
	}{
		{"ok-warn-crit-ok", []float64{0.99, 0.93, 0.85, 0.99}, []Level{OK, Warn, Crit, OK}},
		{"straight-to-crit", []float64{0.5}, []Level{Crit}},
		{"warn-band", []float64{0.94}, []Level{Warn}},
		// 0.91 is above the CRIT threshold 0.9 but below 0.9·1.02 = 0.918:
		// hysteresis keeps the alert at CRIT until the value clears the margin.
		{"crit-hysteresis-holds", []float64{0.85, 0.91}, []Level{Crit, Crit}},
		{"crit-hysteresis-clears", []float64{0.85, 0.93}, []Level{Crit, Warn}},
		// WARN threshold 0.945, margin 0.945·1.02 = 0.9639.
		{"warn-hysteresis-holds", []float64{0.93, 0.95}, []Level{Warn, Warn}},
		{"warn-hysteresis-clears", []float64{0.93, 0.97}, []Level{Warn, OK}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, _, _ := newTestAlerter(Config{})
			for i, u := range tc.us {
				got := a.EvalSession(7, u, 0.9, "")
				if got != tc.want[i] {
					t.Fatalf("step %d: u=%v -> %v, want %v", i, u, got, tc.want[i])
				}
			}
		})
	}
}

func TestCloudletLevels(t *testing.T) {
	a, _, fired := newTestAlerter(Config{})
	if got := a.EvalCloudlet(3, "down", "crash"); got != Crit {
		t.Fatalf("down -> %v, want CRIT", got)
	}
	if got := a.EvalCloudlet(3, "degraded", "draining"); got != Warn {
		t.Fatalf("degraded -> %v, want WARN", got)
	}
	if got := a.EvalCloudlet(3, "up", "repaired"); got != OK {
		t.Fatalf("up -> %v, want OK", got)
	}
	if len(*fired) != 3 {
		t.Fatalf("fired %d transitions, want 3", len(*fired))
	}
	if len(a.Active()) != 0 {
		t.Fatalf("recovered cloudlet still active: %+v", a.Active())
	}
}

func TestDedupWindow(t *testing.T) {
	a, clock, fired := newTestAlerter(Config{})
	flap := func() {
		a.EvalSession(1, 0.5, 0.9, "")  // CRIT
		a.EvalSession(1, 0.99, 0.9, "") // OK
	}
	flap() // both transitions fire
	clock.Advance(2 * time.Second)
	flap() // both deduplicated (same levels re-entered within the window)
	if got := len(*fired); got != 2 {
		t.Fatalf("fired %d transitions, want 2 (second flap deduped)", got)
	}
	clock.Advance(20 * time.Second)
	flap() // window expired: fires again
	if got := len(*fired); got != 4 {
		t.Fatalf("fired %d transitions, want 4 after window expiry", got)
	}
	// Dedup suppresses the handler, never the state machine.
	a.EvalSession(1, 0.5, 0.9, "")
	if got := a.Level(Key{Kind: KindSession, ID: 1}); got != Crit {
		t.Fatalf("level %v after deduped transition, want CRIT", got)
	}
}

func TestResolveDropsEntry(t *testing.T) {
	a, _, _ := newTestAlerter(Config{})
	a.EvalSession(5, 0.5, 0.9, "")
	if len(a.Active()) != 1 {
		t.Fatalf("want 1 active alert, got %d", len(a.Active()))
	}
	a.Resolve(Key{Kind: KindSession, ID: 5}, "released")
	if len(a.Active()) != 0 {
		t.Fatalf("resolved alert still active")
	}
	if got := a.Level(Key{Kind: KindSession, ID: 5}); got != OK {
		t.Fatalf("resolved level %v, want OK", got)
	}
}

func TestActiveSortedDeterministic(t *testing.T) {
	a, _, _ := newTestAlerter(Config{})
	a.EvalSession(9, 0.5, 0.9, "")
	a.EvalCloudlet(2, "down", "")
	a.EvalSession(3, 0.93, 0.9, "")
	a.EvalCloudlet(7, "degraded", "")
	got := a.Active()
	want := []Key{
		{KindCloudlet, 2}, {KindCloudlet, 7}, {KindSession, 3}, {KindSession, 9},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d active alerts, want %d", len(got), len(want))
	}
	for i, al := range got {
		if al.Key != want[i] {
			t.Fatalf("slot %d: %v, want %v", i, al.Key, want[i])
		}
	}
}

// TestConcurrentEvalAndRead drives concurrent event application against
// /v1/alerts-style reads; run under -race this pins the alerter's locking.
func TestConcurrentEvalAndRead(t *testing.T) {
	a := New(Config{Handler: func(Transition) {}})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				u := 0.5 + float64((g+i)%50)/100
				a.EvalSession(g*100+i%17, u, 0.9, "load")
				a.EvalCloudlet(i%5, []string{"down", "up", "degraded"}[i%3], "")
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a.Snapshot()
				a.Active()
				a.Recent()
			}
		}()
	}
	wg.Wait()
}
