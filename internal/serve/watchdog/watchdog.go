// Package watchdog is the serving layer's live failure-handling toolkit: a
// kapacitor-style stateful alerter with OK/WARN/CRIT levels, hysteresis, and
// a dedup window, keyed per session and per cloudlet. The serving layer
// (internal/serve) feeds it node health transitions and attained-reliability
// recomputes; the alerter tracks level transitions, fires a handler hook on
// each (deduplicated) transition, and serves a JSON view for /v1/alerts.
//
// The alerter is deliberately free of serve dependencies — it consumes plain
// (attained, expected) reliability pairs and health strings — so its state
// machine is testable in isolation and reusable by offline tooling.
package watchdog

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Level is an alert severity. Levels are ordered: OK < Warn < Crit.
type Level int

// Alert severity levels, ordered ascending.
const (
	OK Level = iota
	Warn
	Crit
)

// String returns the canonical upper-case level name.
func (l Level) String() string {
	switch l {
	case OK:
		return "OK"
	case Warn:
		return "WARN"
	case Crit:
		return "CRIT"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Kind distinguishes alert subjects.
const (
	// KindSession keys an alert by session (placement) ID: attained
	// reliability u_j versus expectation ρ_j.
	KindSession = "session"
	// KindCloudlet keys an alert by cloudlet ID: node health transitions.
	KindCloudlet = "cloudlet"
)

// Key identifies one alert subject.
type Key struct {
	Kind string `json:"kind"`
	ID   int    `json:"id"`
}

// String renders the key as "kind/id".
func (k Key) String() string { return fmt.Sprintf("%s/%d", k.Kind, k.ID) }

// Transition is one alert level change, delivered to the handler hook and
// kept in the recent-transition ring.
type Transition struct {
	Key   Key     `json:"key"`
	From  Level   `json:"-"`
	To    Level   `json:"-"`
	Value float64 `json:"value"`     // attained u_j (sessions) or 0/1 health (cloudlets)
	Bound float64 `json:"threshold"` // expectation ρ_j (sessions); unused for cloudlets
	Note  string  `json:"note,omitempty"`
	// FromName/ToName are the JSON renderings of From/To.
	FromName string `json:"from"`
	ToName   string `json:"to"`
}

// Alert is the public view of one alert state, served on /v1/alerts.
type Alert struct {
	Key   Key     `json:"key"`
	Level string  `json:"level"`
	Value float64 `json:"value"`
	Bound float64 `json:"threshold,omitempty"`
	Note  string  `json:"note,omitempty"`
	// Count is how many times this key entered its current level.
	Count int `json:"count"`
}

// Config parameterizes the alerter's thresholds and state machine.
type Config struct {
	// WarnFactor raises WARN when u < ρ·WarnFactor: the session is meeting
	// its SLO but running close to it. Must be >= CritFactor. Default 1.05.
	WarnFactor float64
	// CritFactor raises CRIT when u < ρ·CritFactor — with the default 1.0,
	// CRIT means the SLO is violated outright.
	CritFactor float64
	// Handler receives every non-deduplicated transition. nil installs the
	// default slog hook (WARN→slog.Warn, CRIT→slog.Error, OK→slog.Info).
	Handler func(Transition)
	// Now overrides the clock (tests). nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.WarnFactor == 0 {
		c.WarnFactor = 1.05
	}
	if c.CritFactor == 0 {
		c.CritFactor = 1.0
	}
	if c.Handler == nil {
		c.Handler = slogHandler
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// hysteresis is the fractional margin a recovering value must clear beyond a
// threshold before the level downgrades, preventing flapping at the boundary
// (clear WARN only when u >= ρ·WarnFactor·1.02).
const hysteresis = 0.02

// dedupWindow suppresses the handler hook (not the state change) when the
// same key re-enters the same level within it.
const dedupWindow = 5 * time.Second

// slogHandler is the default transition hook: structured log lines at a
// severity matching the level entered.
func slogHandler(t Transition) {
	args := []any{"key", t.Key.String(), "from", t.From.String(), "to", t.To.String(),
		"value", t.Value, "threshold", t.Bound, "note", t.Note}
	switch t.To {
	case Crit:
		slog.Error("watchdog: alert", args...)
	case Warn:
		slog.Warn("watchdog: alert", args...)
	default:
		slog.Info("watchdog: alert cleared", args...)
	}
}

// entry is one key's alert state.
type entry struct {
	level Level
	value float64
	bound float64
	note  string
	count int // times the key entered its current level
	// lastFired[level] is when the handler last fired for a transition into
	// level — the dedup window's memory.
	lastFired [Crit + 1]time.Time
}

// metrics are the alerter's obs instruments (package-level, shared by every
// Alerter in the process — the serving layer constructs exactly one).
var metrics = struct {
	transitions [Crit + 1]*obs.Counter
	active      [Crit + 1]*obs.Gauge
	deduped     *obs.Counter
}{
	transitions: [Crit + 1]*obs.Counter{
		obs.Default().Counter("serve_alert_transitions_total", "level", "ok"),
		obs.Default().Counter("serve_alert_transitions_total", "level", "warn"),
		obs.Default().Counter("serve_alert_transitions_total", "level", "crit"),
	},
	active: [Crit + 1]*obs.Gauge{
		obs.Default().Gauge("serve_alerts_active", "level", "ok"),
		obs.Default().Gauge("serve_alerts_active", "level", "warn"),
		obs.Default().Gauge("serve_alerts_active", "level", "crit"),
	},
	deduped: obs.Default().Counter("serve_alert_deduped_total"),
}

// Alerter is the stateful alert engine. All methods are safe for concurrent
// use: event application takes the write lock, /v1/alerts reads take the read
// lock.
type Alerter struct {
	cfg Config

	mu      sync.RWMutex
	entries map[Key]*entry
	recent  []Transition // bounded ring of the last recentCap transitions
}

// recentCap bounds the recent-transition ring served on /v1/alerts.
const recentCap = 64

// New builds an alerter; zero-value Config fields take their defaults.
func New(cfg Config) *Alerter {
	return &Alerter{cfg: cfg.withDefaults(), entries: make(map[Key]*entry)}
}

// sessionLevel classifies attained reliability u against expectation rho
// under the alerter's thresholds, given the current level (hysteresis: a
// recovering value must clear the threshold by the hysteresis margin before
// the level drops).
func (a *Alerter) sessionLevel(cur Level, u, rho float64) Level {
	critAt := rho * a.cfg.CritFactor
	warnAt := rho * a.cfg.WarnFactor
	if warnAt < critAt {
		warnAt = critAt
	}
	switch {
	case u < critAt:
		return Crit
	case cur >= Crit && u < critAt*(1+hysteresis):
		return Crit
	case u < warnAt:
		return Warn
	case cur >= Warn && u < warnAt*(1+hysteresis):
		return Warn
	default:
		return OK
	}
}

// EvalSession applies a session reliability observation: the attained u_j
// against the expectation ρ_j. Returns the resulting level.
func (a *Alerter) EvalSession(id int, u, rho float64, note string) Level {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := Key{Kind: KindSession, ID: id}
	e := a.entries[key]
	cur := OK
	if e != nil {
		cur = e.level
	}
	next := a.sessionLevel(cur, u, rho)
	a.applyLocked(key, next, u, rho, note)
	return next
}

// EvalCloudlet applies a cloudlet health observation: "down" is CRIT,
// "degraded" is WARN, "up" is OK. Returns the resulting level.
func (a *Alerter) EvalCloudlet(node int, health string, note string) Level {
	var next Level
	var value float64
	switch health {
	case "down":
		next, value = Crit, 0
	case "degraded":
		next, value = Warn, 0.5
	default:
		next, value = OK, 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.applyLocked(Key{Kind: KindCloudlet, ID: node}, next, value, 0, note)
	return next
}

// Resolve forces a key to OK (e.g. the session was released) and drops its
// entry once the transition is recorded.
func (a *Alerter) Resolve(key Key, note string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.entries[key]; ok && e.level != OK {
		a.applyLocked(key, OK, e.value, e.bound, note)
	}
	if e, ok := a.entries[key]; ok {
		metrics.active[e.level].Add(-1)
		delete(a.entries, key)
	}
}

// applyLocked moves key to level, firing the handler unless the transition is
// a duplicate within the dedup window. Callers hold a.mu.
func (a *Alerter) applyLocked(key Key, level Level, value, bound float64, note string) {
	e := a.entries[key]
	if e == nil {
		if level == OK {
			return // never materialize an entry for a healthy subject
		}
		e = &entry{level: OK}
		a.entries[key] = e
		metrics.active[OK].Add(1)
	}
	prev := e.level
	e.value, e.bound = value, bound
	if note != "" {
		e.note = note
	}
	if level == prev {
		return
	}
	metrics.active[prev].Add(-1)
	metrics.active[level].Add(1)
	metrics.transitions[level].Inc()
	e.level = level
	e.count++
	now := a.cfg.Now()
	tr := Transition{
		Key: key, From: prev, To: level, Value: value, Bound: bound, Note: note,
		FromName: prev.String(), ToName: level.String(),
	}
	a.recent = append(a.recent, tr)
	if len(a.recent) > recentCap {
		a.recent = a.recent[len(a.recent)-recentCap:]
	}
	if now.Sub(e.lastFired[level]) < dedupWindow && !e.lastFired[level].IsZero() {
		metrics.deduped.Inc()
		return
	}
	e.lastFired[level] = now
	a.cfg.Handler(tr)
}

// Level returns the current level for key (OK when untracked).
func (a *Alerter) Level(key Key) Level {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if e, ok := a.entries[key]; ok {
		return e.level
	}
	return OK
}

// Active returns every non-OK alert, sorted by kind then ID — the
// deterministic view, equal across identically seeded runs.
func (a *Alerter) Active() []Alert {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []Alert
	for key, e := range a.entries {
		if e.level == OK {
			continue
		}
		out = append(out, Alert{
			Key: key, Level: e.level.String(), Value: e.value,
			Bound: e.bound, Note: e.note, Count: e.count,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Kind != out[j].Key.Kind {
			return out[i].Key.Kind < out[j].Key.Kind
		}
		return out[i].Key.ID < out[j].Key.ID
	})
	return out
}

// Recent returns the last transitions (most recent last), bounded to the
// internal ring capacity.
func (a *Alerter) Recent() []Transition {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]Transition(nil), a.recent...)
}

// View is the JSON body of GET /v1/alerts.
type View struct {
	Active []Alert      `json:"active"`
	Recent []Transition `json:"recent_transitions"`
}

// Snapshot collects the /v1/alerts view.
func (a *Alerter) Snapshot() View {
	return View{Active: a.Active(), Recent: a.Recent()}
}
