package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mec"
	"repro/internal/obs/trace"
)

// testNetwork builds a 5-AP network (every AP a cloudlet with the given
// capacity) over a well-connected topology and a 2-function catalog.
func testNetwork(capacity float64) *mec.Network {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	caps := []float64{capacity, capacity, capacity, capacity, capacity}
	cat := mec.NewCatalog([]mec.FunctionType{
		{Name: "fw", Demand: 10, Reliability: 0.96},
		{Name: "nat", Demand: 15, Reliability: 0.92},
	})
	return mec.NewNetwork(g, caps, cat)
}

func testRequest(src int) AugmentRequest {
	return AugmentRequest{SFC: []int{0, 1}, Expectation: 0.9, Source: src % 5, Destination: (src + 2) % 5}
}

// blockingSolver parks every Solve until release is closed, reporting each
// start on started. It lets tests hold a batch in-flight deliberately.
type blockingSolver struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockingSolver) Name() string { return "blocking" }

func (b *blockingSolver) Solve(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
	b.started <- struct{}{}
	<-b.release
	return nil, errors.New("blocking solver declines")
}

// countingSolver fails every solve and counts invocations.
type countingSolver struct{ calls atomic.Int64 }

func (c *countingSolver) Name() string { return "counting" }

func (c *countingSolver) Solve(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
	c.calls.Add(1)
	return nil, errors.New("counting solver declines")
}

func newBlockingService(t *testing.T, bs *blockingSolver, queueDepth int) *Service {
	t.Helper()
	svc, err := New(testNetwork(1000), Options{
		QueueDepth: queueDepth, BatchSize: 1,
		Workers: 1, Solver: bs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestQueueFullRejectsWith429(t *testing.T) {
	bs := &blockingSolver{started: make(chan struct{}, 16), release: make(chan struct{})}
	svc := newBlockingService(t, bs, 2)

	first, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatalf("enqueue first: %v", err)
	}
	<-bs.started // first request is now in-flight, not in the queue

	var tickets []*Ticket
	for i := 1; ; i++ {
		tk, err := svc.Enqueue(testRequest(i))
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		tickets = append(tickets, tk)
		if len(tickets) > 2 {
			t.Fatalf("queue of depth 2 accepted %d queued requests", len(tickets))
		}
	}
	if len(tickets) != 2 {
		t.Fatalf("queue of depth 2 held %d requests before rejecting", len(tickets))
	}

	// The HTTP layer maps the same rejection to 429 + Retry-After.
	body, _ := json.Marshal(testRequest(9))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/augment", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(bs.release)
	for _, tk := range append(tickets, first) {
		if out := tk.Wait(); out.Status != http.StatusUnprocessableEntity {
			t.Fatalf("blocked request resolved to %d, want 422", out.Status)
		}
	}
}

func TestDrainFlushesQueuedRequests(t *testing.T) {
	bs := &blockingSolver{started: make(chan struct{}, 16), release: make(chan struct{})}
	svc := newBlockingService(t, bs, 8)

	first, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	<-bs.started
	var queued []*Ticket
	for i := 1; i <= 3; i++ {
		tk, err := svc.Enqueue(testRequest(i))
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		queued = append(queued, tk)
	}

	drained := make(chan struct{})
	go func() { svc.Drain(); close(drained) }()
	for !svc.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Enqueue(testRequest(7)); !errors.Is(err, ErrDraining) {
		t.Fatalf("enqueue while draining: err=%v, want ErrDraining", err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining answered %d, want 503", rec.Code)
	}

	close(bs.release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the solver was released")
	}
	// Every request admitted before the drain still got an answer.
	for _, tk := range append(queued, first) {
		select {
		case out := <-tk.p.done:
			if out.reason.Status() != http.StatusUnprocessableEntity {
				t.Fatalf("drained request resolved to %d, want 422", out.reason.Status())
			}
		default:
			t.Fatal("Drain returned with an unanswered queued request")
		}
	}
}

func TestZeroCapacityNetworkAnswers422(t *testing.T) {
	svc, err := New(testNetwork(0), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	tk, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	out := tk.Wait()
	if out.Status != http.StatusUnprocessableEntity {
		t.Fatalf("zero-capacity network answered %d, want 422", out.Status)
	}
	if out.Err == "" {
		t.Fatal("422 without an error detail")
	}
}

// TestRandomizedViolationsDoNotCommit pins the handling of a
// capacity-violating solution (possible for the Randomized solver): the
// request answers 422 "no usable result", its primaries are rolled back, and
// the ledger is bit-identical to the one before it arrived.
func TestRandomizedViolationsDoNotCommit(t *testing.T) {
	violating := core.NewSolverFunc("Violating", func(inst *core.Instance, _ *rand.Rand) (*core.Result, error) {
		res, err := core.SolveGreedy(inst)
		if err != nil {
			return nil, err
		}
		res.Violated = true
		return res, nil
	})
	svc, err := New(testNetwork(1000), Options{Workers: 1, Solver: violating})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	before := svc.State().Hash()
	tk, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	out := tk.Wait()
	if out.Status != http.StatusUnprocessableEntity || !strings.Contains(out.Err, "no usable result") {
		t.Fatalf("violating solution answered %d %q, want 422 no usable result", out.Status, out.Err)
	}
	if svc.State().PlacedCount() != 0 || svc.State().Hash() != before {
		t.Fatalf("violating solution was committed: %d placements, hash %016x -> %016x",
			svc.State().PlacedCount(), before, svc.State().Hash())
	}
}

func TestReleaseUnknownIDAnswers404(t *testing.T) {
	svc, err := New(testNetwork(100), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	body, _ := json.Marshal(ReleaseRequest{ID: 12345})
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(body)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("release of unknown id answered %d, want 404", rec.Code)
	}
}

func TestAugmentAndReleaseRestoreCapacity(t *testing.T) {
	net := testNetwork(1000)
	svc, err := New(net, Options{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	// MVCC: the network itself is never mutated; capacity lives in epochs.
	beforeCloudlets, _, beforeHash := svc.State().Snapshot()

	body, _ := json.Marshal(testRequest(1))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/augment", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("augment answered %d: %s", rec.Code, rec.Body)
	}
	var ar AugmentResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Primaries) != 2 || len(ar.Secondaries) != 2 {
		t.Fatalf("placement shape: primaries=%v secondaries=%v", ar.Primaries, ar.Secondaries)
	}
	if ar.Reliability < ar.InitialReliability {
		t.Fatalf("augmentation lowered reliability: %v -> %v", ar.InitialReliability, ar.Reliability)
	}

	rb, _ := json.Marshal(ReleaseRequest{ID: ar.ID})
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(rb)))
	if rec.Code != http.StatusOK {
		t.Fatalf("release answered %d: %s", rec.Code, rec.Body)
	}
	afterCloudlets, _, afterHash := svc.State().Snapshot()
	for i := range beforeCloudlets {
		if beforeCloudlets[i].Residual != afterCloudlets[i].Residual {
			t.Fatalf("residual at node %d not restored: %v -> %v",
				beforeCloudlets[i].ID, beforeCloudlets[i].Residual, afterCloudlets[i].Residual)
		}
	}
	if beforeHash != afterHash {
		t.Fatalf("state hash not restored: %016x -> %016x", beforeHash, afterHash)
	}
	if net.ResidualSnapshot()[0] != 1000 {
		t.Fatal("service mutated the base network's residual ledger")
	}
	// Releasing the same id twice is a 404, not a double free.
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(rb)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double release answered %d, want 404", rec.Code)
	}
}

// TestRepeatedInfeasibleLeavesStateUntouched pins the identity-commit rule:
// the same infeasible request submitted twice is solved and answered 422
// twice, and neither attempt installs an epoch, moves the ledger, or appends
// to the WAL.
func TestRepeatedInfeasibleLeavesStateUntouched(t *testing.T) {
	cs := &countingSolver{}
	svc, err := New(testNetwork(1000), Options{
		Workers: 1, Solver: cs, WALDir: t.TempDir(), WALSync: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	hash, epoch := svc.State().Hash(), svc.State().Epoch()

	ar := testRequest(0)
	ar.Primaries = []int{0, 1}
	for attempt := 1; attempt <= 2; attempt++ {
		tk, err := svc.Enqueue(ar)
		if err != nil {
			t.Fatal(err)
		}
		if out := tk.Wait(); out.Status != http.StatusUnprocessableEntity {
			t.Fatalf("attempt %d: status=%d, want 422", attempt, out.Status)
		}
		if got := cs.calls.Load(); got != int64(attempt) {
			t.Fatalf("attempt %d: solver ran %d times", attempt, got)
		}
	}
	if got := svc.State().Hash(); got != hash {
		t.Fatalf("infeasible requests moved the ledger: %016x -> %016x", hash, got)
	}
	if got := svc.State().Epoch(); got != epoch {
		t.Fatalf("infeasible requests installed epochs: %d -> %d", epoch, got)
	}
	if got := svc.state.wal.Entries(); got != 0 {
		t.Fatalf("infeasible requests appended %d WAL entries", got)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	svc, err := New(testNetwork(100), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	cases := []struct {
		name string
		ar   AugmentRequest
	}{
		{"empty sfc", AugmentRequest{Expectation: 0.9}},
		{"bad function", AugmentRequest{SFC: []int{99}, Expectation: 0.9}},
		{"bad rho", AugmentRequest{SFC: []int{0}, Expectation: 1.5}},
		{"bad endpoint", AugmentRequest{SFC: []int{0}, Expectation: 0.9, Source: -1}},
		{"primaries mismatch", AugmentRequest{SFC: []int{0, 1}, Expectation: 0.9, Primaries: []int{0}}},
		{"negative deadline", AugmentRequest{SFC: []int{0}, Expectation: 0.9, DeadlineMS: -5}},
		// deadline_ms × 1e6 ns past MaxInt64: the first wraps to a 448.384µs
		// deadline, the second to a negative ("unbounded") one.
		{"deadline overflows to 448µs", AugmentRequest{SFC: []int{0}, Expectation: 0.9, DeadlineMS: 18446744073710}},
		{"deadline overflows negative", AugmentRequest{SFC: []int{0}, Expectation: 0.9, DeadlineMS: 10000000000000}},
		{"sfc too long", AugmentRequest{SFC: make([]int, maxChainLen+1), Expectation: 0.9}},
	}
	for _, tc := range cases {
		if _, err := svc.Enqueue(tc.ar); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		body, _ := json.Marshal(tc.ar)
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/augment", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP answered %d, want 400", tc.name, rec.Code)
		}
	}
	// A body over the size limit is refused even when what it holds is valid:
	// each of these would be accepted without its leading padding.
	pad := bytes.Repeat([]byte(" "), maxBodyBytes)
	for path, body := range map[string]any{
		"/v1/augment": testRequest(0),
		"/v1/release": ReleaseRequest{ID: 1},
		"/v1/node":    NodeEvent{Node: 0, Health: HealthUp},
	} {
		valid, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(append(pad, valid...))))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("oversized %s body: HTTP answered %d, want 400", path, rec.Code)
		}
	}
}

// TestDeadlineIsPerRequest pins that deadline_ms bounds its own request and
// nothing else. One batch holds a request with a 1 ms deadline and one
// without, solved by a ~20 ms solver that honours Instance.Deadline: only the
// first answers 504 (its solve span noted "deadline"), the second is placed,
// serve_deadline_hits_total rises by exactly one, and no solve is left
// running — the count of goroutines inside the solver is back to its
// pre-batch value as soon as the answers are in.
//
// The count is taken from the goroutine dump rather than
// runtime.NumGoroutine: the batch's own pool workers and answering goroutine
// exit just after their last synchronising step, so under load a raw count
// can still include one of them, while a solve frame that is still on a stack
// can only be an abandoned solve.
func TestDeadlineIsPerRequest(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 2, Solver: core.NewSolverFunc("Slow", slowSolve)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	solving, hits := goroutinesIn("serve.slowSolve("), metrics.decided[ReasonDeadline].Value()

	impatient := testRequest(0)
	impatient.DeadlineMS = 1
	var tickets []*Ticket
	end := svc.BeginWave()
	for _, ar := range []AugmentRequest{impatient, testRequest(1)} {
		tk, err := svc.Enqueue(ar)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	end()
	// The batch is answered in sequence order: waiting on its last request
	// first means both answers are in once that Wait returns.
	patientOut := tickets[1].Wait()
	impatientOut := tickets[0].Wait()
	if n := goroutinesIn("serve.slowSolve("); n != solving {
		t.Errorf("%d goroutines inside the solver after the answers, %d before the batch: a solve outlived its request", n, solving)
	}
	if impatientOut.Status != http.StatusGatewayTimeout {
		t.Fatalf("request with deadline_ms 1 answered %d (%s), want 504", impatientOut.Status, impatientOut.Err)
	}
	if patientOut.Status != http.StatusOK {
		t.Fatalf("its batchmate without a deadline answered %d (%s), want 200", patientOut.Status, patientOut.Err)
	}
	if got := metrics.decided[ReasonDeadline].Value() - hits; got != 1 {
		t.Fatalf("serve_deadline_hits_total rose by %d, want 1", got)
	}
	for _, c := range []struct {
		out  Outcome
		note string
	}{{impatientOut, "deadline"}, {patientOut, "solved"}} {
		if got := spanNote(c.out.Trace, "solve"); got != c.note {
			t.Errorf("answer %d: solve span noted %q, want %q", c.out.Status, got, c.note)
		}
	}
}

// slowSolve takes 20 ms to answer with Greedy's placement, or gives up with
// core.ErrDeadline at the instance's deadline when that comes first.
func slowSolve(inst *core.Instance, _ *rand.Rand) (*core.Result, error) {
	finish := time.Now().Add(20 * time.Millisecond)
	if !inst.Deadline.IsZero() && inst.Deadline.Before(finish) {
		time.Sleep(time.Until(inst.Deadline))
		return nil, core.ErrDeadline
	}
	time.Sleep(time.Until(finish))
	return core.SolveGreedy(inst)
}

// goroutinesIn counts the goroutines whose stack holds the given frame.
func goroutinesIn(frame string) int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), frame)
}

// spanNote returns the note of the named span in a trace snapshot.
func spanNote(snap *trace.Snapshot, name string) string {
	if snap == nil {
		return "<no trace>"
	}
	for _, sp := range snap.Spans {
		if sp.Name == name {
			return sp.Note
		}
	}
	return "<no " + name + " span>"
}

func TestStateEndpointReportsLedger(t *testing.T) {
	svc, err := New(testNetwork(100), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("state answered %d", rec.Code)
	}
	var st StateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Cloudlets) != 5 || st.Placed != 0 || st.Draining {
		t.Fatalf("unexpected state: %+v", st)
	}
	for _, c := range st.Cloudlets {
		if c.Residual != 100 {
			t.Fatalf("cloudlet %d residual %v, want 100", c.ID, c.Residual)
		}
	}
	if st.StateHash == "" {
		t.Fatal("state without canonical hash")
	}
}

func TestStateHashChangesWithLedger(t *testing.T) {
	st := NewState(testNetwork(100))
	h1 := st.Hash()

	install := func(mutate func(res []float64)) {
		res := append([]float64(nil), st.pin().res...)
		mutate(res)
		st.commitMu.Lock()
		st.installLocked(res, installOp{})
		st.commitMu.Unlock()
	}
	install(func(res []float64) { res[0] -= 10 })
	h2 := st.Hash()
	install(func(res []float64) { res[0] += 10 })
	h3 := st.Hash()

	if h1 == h2 {
		t.Fatal("hash unchanged after capacity mutation")
	}
	if h1 != h3 {
		t.Fatal("hash not restored after exact rollback")
	}
	if got := st.Epoch(); got != 2 {
		t.Fatalf("epoch %d after two installs, want 2", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(testNetwork(10), Options{QueueDepth: -1}); err == nil {
		t.Fatal("negative queue depth accepted")
	}
	if _, err := New(testNetwork(10), Options{AdmitPolicy: "bogus"}); err == nil {
		t.Fatal("unknown admit policy accepted")
	}
	if _, err := New(testNetwork(10), Options{HopBound: -2}); err == nil {
		t.Fatal("negative hop bound accepted")
	}
}

func ExampleService_Handler() {
	svc, _ := New(testNetwork(1000), Options{Workers: 1, Seed: 3})
	defer svc.Drain()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body, _ := json.Marshal(AugmentRequest{SFC: []int{0, 1}, Expectation: 0.9, Source: 0, Destination: 2})
	resp, _ := http.Post(srv.URL+"/v1/augment", "application/json", bytes.NewReader(body))
	fmt.Println(resp.StatusCode)
	resp.Body.Close()
	// Output: 200
}
