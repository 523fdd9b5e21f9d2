package serve

import (
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/admission"
)

// hangGuard bounds how long a test waits for an answer that the dispatcher
// owes at once; reaching it means a request is stuck, not that a clock was
// too tight.
const hangGuard = 30 * time.Second

// waitAll waits for every ticket under one hangGuard and returns the
// outcomes in ticket order.
func waitAll(t *testing.T, tickets []*Ticket) []Outcome {
	t.Helper()
	done := make(chan []Outcome, 1)
	go func() {
		outs := make([]Outcome, len(tickets))
		for i, tk := range tickets {
			outs[i] = tk.Wait()
		}
		done <- outs
	}()
	select {
	case outs := <-done:
		return outs
	case <-time.After(hangGuard):
		t.Fatalf("%d enqueued requests not answered within %v", len(tickets), hangGuard)
		return nil
	}
}

// TestIdleEnqueueDispatchesAtOnce pins that no request waits on a clock: one
// request into an idle service with room left in its batch is dispatched when
// the queue runs empty, however long BatchWait is.
func TestIdleEnqueueDispatchesAtOnce(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, BatchSize: 8, BatchWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	tk, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	if out := waitAll(t, []*Ticket{tk})[0]; out.Status != http.StatusOK {
		t.Fatalf("answered %d (%s), want 200", out.Status, out.Err)
	}
}

// TestWaveIsCutIntoFullBatches pins the wave contract: the dispatcher pops
// nothing while a wave is open, so a wave of 2×BatchSize into an idle service
// becomes exactly two full batches at any batcher count and discipline.
func TestWaveIsCutIntoFullBatches(t *testing.T) {
	const batchSize = 4
	tenants := []admission.Tenant{{Name: "gold", Weight: 4}, {Name: "free", Weight: 1}}
	for _, mode := range []string{AdmissionFIFO, AdmissionFair} {
		for _, batchers := range []int{1, 4} {
			svc, err := New(testNetwork(1000), Options{
				Workers: 2, Batchers: batchers, BatchSize: batchSize,
				Tenants: tenants, Admission: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			batches := metrics.batches.Value()
			sized, members := metrics.batchSize.Count(), metrics.batchSize.Sum()

			var tickets []*Ticket
			end := svc.BeginWave()
			for i := 0; i < 2*batchSize; i++ {
				ar := testRequest(i)
				ar.Tenant = tenants[i%2].Name
				tk, err := svc.Enqueue(ar)
				if err != nil {
					t.Fatalf("%s batchers=%d: enqueue %d: %v", mode, batchers, i, err)
				}
				tickets = append(tickets, tk)
			}
			end()
			for i, out := range waitAll(t, tickets) {
				if out.Status != http.StatusOK {
					t.Fatalf("%s batchers=%d: request %d answered %d (%s)", mode, batchers, i, out.Status, out.Err)
				}
			}
			svc.Drain()

			gotBatches := metrics.batches.Value() - batches
			gotSized := metrics.batchSize.Count() - sized
			gotMembers := metrics.batchSize.Sum() - members
			if gotBatches != 2 || gotSized != 2 || gotMembers != 2*batchSize {
				t.Fatalf("%s batchers=%d: wave of %d ran as %d batches (%d sized) holding %v requests, want 2 batches of %d",
					mode, batchers, 2*batchSize, gotBatches, gotSized, gotMembers, batchSize)
			}
		}
	}
}

// TestAbandonedWaveReleasesDispatcher pins the BatchWait bound: a wave that
// is opened and never closed holds the dispatcher no longer than BatchWait,
// a plain request submitted meanwhile is still answered, and the wave's late
// end is a no-op.
func TestAbandonedWaveReleasesDispatcher(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, BatchSize: 8, BatchWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	end := svc.BeginWave()
	tk, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	if out := waitAll(t, []*Ticket{tk})[0]; out.Status != http.StatusOK {
		t.Fatalf("request behind an abandoned wave answered %d (%s), want 200", out.Status, out.Err)
	}
	end()
	svc.queue.mu.Lock()
	open := svc.queue.waves
	svc.queue.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d waves open after the abandoned wave's late end, want 0", open)
	}
	if tk, err = svc.Enqueue(testRequest(1)); err != nil {
		t.Fatal(err)
	}
	if out := waitAll(t, []*Ticket{tk})[0]; out.Status != http.StatusOK {
		t.Fatalf("request after the abandoned wave answered %d (%s), want 200", out.Status, out.Err)
	}
}

// TestUnbracketedBurstIsServedValidly covers the producer that submits a
// burst without declaring it (the in-process benchmark's shape): how the
// burst is cut into batches follows timing, so nothing is pinned about
// composition — but every request is answered, every placement satisfies the
// paper's reliability formula and hop bound, and the ledger conserves.
func TestUnbracketedBurstIsServedValidly(t *testing.T) {
	const burst = 64
	tenants := []admission.Tenant{{Name: "gold", Weight: 4}, {Name: "free", Weight: 1}}
	svc, err := New(testNetwork(5000), Options{
		Workers: 2, Batchers: 4, BatchSize: 8, QueueDepth: 1024,
		Tenants: tenants, Admission: AdmissionFair,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	requests := make([]AugmentRequest, burst)
	tickets := make([]*Ticket, burst)
	for i := range requests {
		requests[i] = testRequest(i)
		requests[i].Tenant = tenants[i%2].Name
		if tickets[i], err = svc.Enqueue(requests[i]); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	held := 0.0
	for i, out := range waitAll(t, tickets) {
		if out.Status != http.StatusOK {
			t.Fatalf("request %d answered %d (%s) on a roomy network", i, out.Status, out.Err)
		}
		if err := checkPlacement(svc, requests[i], out.Response); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		p, _ := svc.State().Placement(out.Response.ID)
		held += heldMHz(p)
	}
	cloudlets, _, _ := svc.State().Snapshot()
	residual, capacity := 0.0, 0.0
	for _, c := range cloudlets {
		residual += c.Residual
		capacity += c.Capacity
	}
	if residual+held != capacity {
		t.Fatalf("ledger does not conserve: residual %v + held %v != capacity %v", residual, held, capacity)
	}
}

// checkPlacement recomputes an answer from the catalog: u = Π(1−(1−r_i)^(n_i+1))
// over the chain, backup counts matching the host lists, and every secondary
// within the hop bound of its primary.
func checkPlacement(svc *Service, ar AugmentRequest, r *AugmentResponse) error {
	base := svc.state.base
	if len(r.Primaries) != len(ar.SFC) || len(r.Secondaries) != len(ar.SFC) || len(r.BackupCounts) != len(ar.SFC) {
		return fmt.Errorf("placement shape %d/%d/%d for a chain of %d",
			len(r.Primaries), len(r.Secondaries), len(r.BackupCounts), len(ar.SFC))
	}
	u := 1.0
	for i, f := range ar.SFC {
		if r.BackupCounts[i] != len(r.Secondaries[i]) {
			return fmt.Errorf("position %d: backup count %d for %d hosts", i, r.BackupCounts[i], len(r.Secondaries[i]))
		}
		near := make(map[int]bool)
		for _, v := range base.NeighborsWithinPlus(r.Primaries[i], svc.opt.HopBound) {
			near[v] = true
		}
		for _, v := range r.Secondaries[i] {
			if !near[v] {
				return fmt.Errorf("position %d: secondary on %d is beyond %d hops of primary %d", i, v, svc.opt.HopBound, r.Primaries[i])
			}
		}
		u *= 1 - math.Pow(1-base.Catalog().Type(f).Reliability, float64(r.BackupCounts[i]+1))
	}
	if math.Abs(u-r.Reliability) > 1e-9*u {
		return fmt.Errorf("reliability %v, recomputed %v", r.Reliability, u)
	}
	return nil
}
