package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mec"
	"repro/internal/obs"
)

// reasonCase brings a fresh service to the point where one more request ends
// with one reason, and returns the service, that request, and what tears the
// setup down once the request is answered.
type reasonCase struct {
	name  string
	setup func(t *testing.T) (*Service, AugmentRequest, func())
	// status, retryAfter and body are the HTTP answer pinned for the reason
	// (body "" for the 200, whose body is the placement).
	status     int
	retryAfter string
	body       string
}

// reasonCases covers every reason a request can end with.
var reasonCases = []reasonCase{
	{
		name: "placed",
		setup: func(t *testing.T) (*Service, AugmentRequest, func()) {
			svc := mustNew(t, testNetwork(1000), Options{Workers: 1})
			return svc, testRequest(0), svc.Drain
		},
		status: http.StatusOK,
	},
	{
		name: "infeasible",
		setup: func(t *testing.T) (*Service, AugmentRequest, func()) {
			svc := mustNew(t, testNetwork(0), Options{Workers: 1})
			return svc, testRequest(0), svc.Drain
		},
		status: http.StatusUnprocessableEntity,
		body:   "admission: admission: no cloudlet has capacity for a primary instance (function type 0, demand 10)",
	},
	{
		name: "deadline",
		setup: func(t *testing.T) (*Service, AugmentRequest, func()) {
			svc := mustNew(t, testNetwork(1000), Options{Workers: 1, Solver: core.NewSolverFunc("Slow", slowSolve)})
			ar := testRequest(0)
			ar.DeadlineMS = 1
			return svc, ar, svc.Drain
		},
		status: http.StatusGatewayTimeout,
		body:   "core: solve deadline exceeded",
	},
	{
		name: "shed",
		setup: func(t *testing.T) (*Service, AugmentRequest, func()) {
			svc := mustNew(t, tinyNetwork(), Options{
				Workers: 1, Seed: 3, BatchSize: 1,
				Admission: AdmissionKnapsack, ScarcityWatermark: 1,
			})
			ar := AugmentRequest{SFC: []int{0}, Expectation: 0.95, Source: 0, Destination: 2}
			for i := 0; i < 30; i++ { // saturate the three cloudlets
				waitOne(t, svc, ar)
			}
			return svc, ar, svc.Drain
		},
		status:     http.StatusTooManyRequests,
		retryAfter: "1",
		body:       "serve: shed by knapsack admission under scarcity",
	},
	{
		name: "quota",
		setup: func(t *testing.T) (*Service, AugmentRequest, func()) {
			svc := mustNew(t, testNetwork(1000), Options{
				Workers: 1, Seed: 3,
				Tenants: []admission.Tenant{{Name: "metered", Weight: 1, Rate: 1, Burst: 2}},
			})
			ar := testRequest(0)
			ar.Tenant = "metered"
			waitOne(t, svc, ar)
			waitOne(t, svc, ar) // the burst is spent
			return svc, ar, svc.Drain
		},
		status:     http.StatusTooManyRequests,
		retryAfter: "1",
		body:       `serve: tenant quota exceeded: tenant "metered"`,
	},
	{
		name: "queue_full",
		setup: func(t *testing.T) (*Service, AugmentRequest, func()) {
			bs := &blockingSolver{started: make(chan struct{}, 4), release: make(chan struct{})}
			svc := newBlockingService(t, bs, 1)
			tickets := holdQueue(t, svc, bs, testRequest(0), testRequest(1))
			return svc, testRequest(2), releaseQueue(svc, bs, tickets)
		},
		status:     http.StatusTooManyRequests,
		retryAfter: "1",
		body:       "serve: admission queue full",
	},
	{
		name: "queue_full/fair_share",
		setup: func(t *testing.T) (*Service, AugmentRequest, func()) {
			bs := &blockingSolver{started: make(chan struct{}, 4), release: make(chan struct{})}
			svc := mustNew(t, testNetwork(1000), Options{
				QueueDepth: 4, BatchSize: 1, Workers: 1, Solver: bs,
				Tenants:   []admission.Tenant{{Name: "gold", Weight: 1}},
				Admission: AdmissionFair,
			})
			gold := testRequest(1)
			gold.Tenant = "gold"
			tickets := holdQueue(t, svc, bs, testRequest(0), gold, gold)
			return svc, gold, releaseQueue(svc, bs, tickets)
		},
		status:     http.StatusTooManyRequests,
		retryAfter: "1",
		body:       `serve: admission queue full: tenant "gold" fair-share sub-queue full`,
	},
	{
		name: "draining",
		setup: func(t *testing.T) (*Service, AugmentRequest, func()) {
			svc := mustNew(t, testNetwork(1000), Options{Workers: 1})
			svc.Drain()
			return svc, testRequest(0), func() {}
		},
		status: http.StatusServiceUnavailable,
		body:   "serve: draining, not accepting requests",
	},
}

func mustNew(t *testing.T, net *mec.Network, opt Options) *Service {
	t.Helper()
	svc, err := New(net, opt)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// waitOne submits ar and waits for its answer, whatever it is.
func waitOne(t *testing.T, svc *Service, ar AugmentRequest) {
	t.Helper()
	tk, err := svc.Enqueue(ar)
	if err != nil {
		t.Fatal(err)
	}
	tk.Wait()
}

// holdQueue submits first and waits until the blocking solver holds it, then
// queues the rest behind it; releaseQueue lets them all finish.
func holdQueue(t *testing.T, svc *Service, bs *blockingSolver, first AugmentRequest, rest ...AugmentRequest) []*Ticket {
	t.Helper()
	var tickets []*Ticket
	for i, ar := range append([]AugmentRequest{first}, rest...) {
		tk, err := svc.Enqueue(ar)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		tickets = append(tickets, tk)
		if i == 0 {
			<-bs.started
		}
	}
	return tickets
}

func releaseQueue(svc *Service, bs *blockingSolver, tickets []*Ticket) func() {
	return func() {
		close(bs.release)
		for _, tk := range tickets {
			tk.Wait()
		}
		svc.Drain()
	}
}

// TestEveryReasonOverHTTP pins, for every reason a request can end with, the
// HTTP answer POST /v1/augment gives: status, Retry-After and error body.
func TestEveryReasonOverHTTP(t *testing.T) {
	for _, c := range reasonCases {
		t.Run(c.name, func(t *testing.T) {
			svc, ar, done := c.setup(t)
			defer done()
			body, _ := json.Marshal(ar)
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/augment", bytes.NewReader(body)))
			if rec.Code != c.status {
				t.Fatalf("answered %d (%s), want %d", rec.Code, rec.Body, c.status)
			}
			if got := rec.Header().Get("Retry-After"); got != c.retryAfter {
				t.Fatalf("Retry-After %q, want %q", got, c.retryAfter)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != c.body {
				t.Fatalf("error body %q (%v), want %q", er.Error, err, c.body)
			}
		})
	}
}

// TestEveryReasonInProcess drives the same cases through Enqueue: a refused
// submission's error carries its reason and still wraps its sentinel, a
// queued request's Outcome carries its reason, and the reason's status is
// the one HTTP answers with.
func TestEveryReasonInProcess(t *testing.T) {
	want := map[string]Reason{
		"placed":                ReasonPlaced,
		"infeasible":            ReasonInfeasible,
		"deadline":              ReasonDeadline,
		"shed":                  ReasonShed,
		"quota":                 ReasonQuota,
		"queue_full":            ReasonQueueFull,
		"queue_full/fair_share": ReasonQueueFull,
		"draining":              ReasonDraining,
	}
	sentinel := map[Reason]error{ReasonQuota: ErrQuotaExceeded, ReasonQueueFull: ErrQueueFull, ReasonDraining: ErrDraining}
	seen := map[Reason]bool{}
	for _, c := range reasonCases {
		t.Run(c.name, func(t *testing.T) {
			why := want[c.name]
			seen[why] = true
			if why.Status() != c.status {
				t.Fatalf("reason %s answers %d, the HTTP case %d", why, why.Status(), c.status)
			}
			svc, ar, done := c.setup(t)
			defer done()
			tk, err := svc.Enqueue(ar)
			if err != nil {
				var refused *Rejection
				if !errors.As(err, &refused) || refused.Reason != why || !errors.Is(err, sentinel[why]) {
					t.Fatalf("refused with %v, want reason %s wrapping %v", err, why, sentinel[why])
				}
				return
			}
			if out := tk.Wait(); out.Reason != why || out.Status != why.Status() {
				t.Fatalf("answered %s/%d (%s), want %s", out.Reason, out.Status, out.Err, why)
			}
		})
	}
	for r := Reason(0); r < numReasons; r++ {
		if !seen[r] {
			t.Errorf("no case ends with reason %s", r)
		}
	}
}

// TestRejectedSeriesAreAugmentOnly pins the serve_rejected_total series
// /metrics lists: one per reason POST /v1/augment refuses a submission with,
// and none for the endpoints that never refuse one (release and state).
func TestRejectedSeriesAreAugmentOnly(t *testing.T) {
	svc := mustNew(t, testNetwork(1000), Options{Workers: 1})
	defer svc.Drain()
	rec := httptest.NewRecorder()
	obs.Handler(obs.Default()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var got []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if series, _, ok := strings.Cut(line, " "); ok && strings.HasPrefix(series, "serve_rejected_total{") {
			got = append(got, series)
		}
	}
	slices.Sort(got)
	want := []string{
		`serve_rejected_total{endpoint="augment",reason="draining"}`,
		`serve_rejected_total{endpoint="augment",reason="queue_full"}`,
		`serve_rejected_total{endpoint="augment",reason="quota"}`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("/metrics lists %q, want %q", got, want)
	}
}
