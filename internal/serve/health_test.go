package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/serve/wal"
	"repro/internal/serve/watchdog"
)

// admitN drives n deterministic admissions from a single goroutine and
// returns the admitted placement IDs.
func admitN(t *testing.T, svc *Service, n int, seed int64) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ids []int
	for i := 0; i < n; i++ {
		sfc := make([]int, 2+rng.Intn(2))
		for j := range sfc {
			sfc[j] = rng.Intn(2)
		}
		tk, err := svc.Enqueue(AugmentRequest{
			SFC: sfc, Expectation: 0.9,
			Source: rng.Intn(5), Destination: rng.Intn(5),
		})
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		out := tk.Wait()
		if out.Status == http.StatusOK {
			ids = append(ids, out.Response.ID)
		}
	}
	return ids
}

// hostingNode returns a cloudlet hosting at least one instance of some live
// placement, preferring one that hosts a secondary (so a failure actually
// degrades reliability without necessarily zeroing it).
func hostingNode(t *testing.T, svc *Service, ids []int) int {
	t.Helper()
	for _, id := range ids {
		p, ok := svc.State().Placement(id)
		if !ok {
			continue
		}
		for _, sec := range p.Secondaries {
			for _, v := range sec {
				return v
			}
		}
	}
	for _, id := range ids {
		p, ok := svc.State().Placement(id)
		if ok && len(p.Primaries) > 0 {
			return p.Primaries[0]
		}
	}
	t.Fatal("no live placement hosts any instance")
	return -1
}

func residualOf(svc *Service, node int) float64 {
	cloudlets, _, _ := svc.State().Snapshot()
	for _, c := range cloudlets {
		if c.ID == node {
			return c.Residual
		}
	}
	return -1
}

func TestApplyHealthDownDestroysInstancesAndUpRestoresCapacity(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ids := admitN(t, svc, 12, 21)
	if len(ids) == 0 {
		t.Fatal("no admissions")
	}
	node := hostingNode(t, svc, ids)

	nr, err := svc.ApplyHealth(node, HealthDown, "test crash")
	if err != nil {
		t.Fatal(err)
	}
	if nr.InstancesDestroyed == 0 || nr.SessionsAffected == 0 {
		t.Fatalf("down on hosting node destroyed %d instances across %d sessions", nr.InstancesDestroyed, nr.SessionsAffected)
	}
	if got := residualOf(svc, node); got != 0 {
		t.Fatalf("down node residual %v, want 0", got)
	}
	if down := svc.State().DownNodes(); len(down) != 1 || down[0] != node {
		t.Fatalf("down set %v, want [%d]", down, node)
	}
	if lvl := svc.Alerter().Level(watchdog.Key{Kind: watchdog.KindCloudlet, ID: node}); lvl != watchdog.Crit {
		t.Fatalf("cloudlet alert %v after down, want CRIT", lvl)
	}
	for _, id := range ids {
		p, ok := svc.State().Placement(id)
		if !ok {
			continue
		}
		for i, sec := range p.Secondaries {
			for _, v := range sec {
				if v == node {
					t.Fatalf("placement %d position %d still lists destroyed secondary on node %d", id, i, node)
				}
			}
		}
		for i, v := range p.Primaries {
			if v == node {
				t.Fatalf("placement %d position %d still lists destroyed primary on node %d", id, i, v)
			}
		}
		if !p.Met {
			if lvl := svc.Alerter().Level(watchdog.Key{Kind: watchdog.KindSession, ID: id}); lvl == watchdog.OK {
				t.Fatalf("placement %d violates its SLO with no active alert", id)
			}
		}
	}
	if viol := svc.SilentViolations(); len(viol) != 0 {
		t.Fatalf("silent SLO violations after down: %v", viol)
	}

	// Idempotent re-application: no epoch bump.
	epoch := svc.State().Epoch()
	nr2, err := svc.ApplyHealth(node, HealthDown, "again")
	if err != nil {
		t.Fatal(err)
	}
	if nr2.Epoch != epoch || nr2.InstancesDestroyed != 0 {
		t.Fatalf("re-applied down installed epoch %d (was %d), destroyed %d", nr2.Epoch, epoch, nr2.InstancesDestroyed)
	}

	// Recovery: destroyed instances are gone, so the full capacity returns.
	if _, err := svc.ApplyHealth(node, HealthUp, "repaired"); err != nil {
		t.Fatal(err)
	}
	if got := residualOf(svc, node); got != 1000 {
		t.Fatalf("recovered node residual %v, want full capacity 1000", got)
	}
	if down := svc.State().DownNodes(); len(down) != 0 {
		t.Fatalf("down set %v after recovery, want empty", down)
	}
	if lvl := svc.Alerter().Level(watchdog.Key{Kind: watchdog.KindCloudlet, ID: node}); lvl != watchdog.OK {
		t.Fatalf("cloudlet alert %v after recovery, want OK", lvl)
	}
}

func TestApplyHealthDegradedScalesFreeCapacity(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	if _, err := svc.ApplyHealth(2, HealthDegraded, "brownout"); err != nil {
		t.Fatal(err)
	}
	if got, want := residualOf(svc, 2), 1000*degradedFactor; got != want {
		t.Fatalf("degraded empty node residual %v, want %v (capacity 1000 x %v)", got, want, degradedFactor)
	}
	if lvl := svc.Alerter().Level(watchdog.Key{Kind: watchdog.KindCloudlet, ID: 2}); lvl != watchdog.Warn {
		t.Fatalf("cloudlet alert %v after degraded, want WARN", lvl)
	}
	if _, err := svc.ApplyHealth(2, HealthUp, "restored"); err != nil {
		t.Fatal(err)
	}
	if got := residualOf(svc, 2); got != 1000 {
		t.Fatalf("recovered node residual %v, want 1000", got)
	}
}

// TestConsumedOnIsOrderIndependent pins that the MHz a node's live placements
// hold — a float sum that a degraded or recovered node's residual, and so the
// state hash, is computed from — is summed in ascending ID order whatever
// order the records were installed in (fair queueing can install a lower ID
// after a higher one). The held amounts span many magnitudes, so almost any
// two summation orders differ in the last bits.
func TestConsumedOnIsOrderIndependent(t *testing.T) {
	const n = 64
	held := func(id int) float64 { return math.Pow(1.7, float64(id%40-20)) }
	want, reversed := 0.0, 0.0
	for id := 1; id <= n; id++ {
		want += held(id)
		reversed += held(n + 1 - id)
	}
	if reversed == want {
		t.Fatal("the held amounts sum to the same bits in both orders; the test checks nothing")
	}
	for seed := int64(1); seed <= 4; seed++ {
		st := NewState(testNetwork(1000))
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		for len(perm) > 0 {
			// Installs of one to eight records each, in shuffled ID order.
			k := min(len(perm), 1+len(perm)%8)
			var admits []*wal.PlacedRecord
			for _, i := range perm[:k] {
				admits = append(admits, &wal.PlacedRecord{ID: i + 1, PerNode: map[int]float64{2: held(i + 1)}})
			}
			perm = perm[k:]
			res := st.pin().res
			st.commitMu.Lock()
			st.installLocked(res, installOp{admits: admits})
			st.commitMu.Unlock()
		}
		if got := st.pin().consumedOn(2); got != want {
			t.Fatalf("seed %d: %v MHz held on node 2, ascending ID order sums %v", seed, got, want)
		}
		if ids := st.PlacementIDs(); len(ids) != n || ids[0] != 1 || ids[n-1] != n || !slices.IsSorted(ids) {
			t.Fatalf("seed %d: installed IDs 1..%d in shuffled order, the epoch lists %v", seed, n, ids)
		}
	}
}

func TestApplyHealthRejectsBadInput(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	if _, err := svc.ApplyHealth(0, "sideways", ""); err == nil {
		t.Fatal("unknown health state accepted")
	}
	if _, err := svc.ApplyHealth(99, HealthDown, ""); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestReleaseAfterNodeDownConservesLedger pins the satellite bugfix: a
// release must not resurrect capacity on a dark node, and the live ledger
// must stay bit-identical to what WAL replay reconstructs from the same
// event order — kill a node mid-load, release survivors, restore, compare.
func TestReleaseAfterNodeDownConservesLedger(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Workers: 2, Seed: 13,
		BatchSize: 4,
		WALDir:    dir, WALSync: "none", SnapshotEvery: 4,
	}
	svc, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := admitN(t, svc, 16, 31)
	node := hostingNode(t, svc, ids)
	if _, err := svc.ApplyHealth(node, HealthDown, "mid-load crash"); err != nil {
		t.Fatal(err)
	}
	// Release half the survivors — including sessions that held instances on
	// the failed node; their dark-node share must not come back.
	for i, id := range ids {
		if i%2 == 0 {
			if _, err := svc.Release(id); err != nil {
				t.Fatalf("release %d: %v", id, err)
			}
		}
	}
	if got := residualOf(svc, node); got != 0 {
		t.Fatalf("releases resurrected %v MHz on the dark node", got)
	}
	admitN(t, svc, 8, 37) // keep writing after the failure
	liveHash := svc.State().Hash()
	liveEpoch := svc.State().Epoch()
	livePlaced := svc.State().PlacedCount()
	liveDown := svc.State().DownNodes()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := NewStateFromWAL(testNetwork(1000), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash() != liveHash {
		t.Fatalf("restored ledger hash %016x != live %016x", st.Hash(), liveHash)
	}
	if st.Epoch() != liveEpoch {
		t.Fatalf("restored epoch %d != live %d", st.Epoch(), liveEpoch)
	}
	if st.PlacedCount() != livePlaced {
		t.Fatalf("restored %d placements, live had %d", st.PlacedCount(), livePlaced)
	}
	if got := fmt.Sprint(st.DownNodes()); got != fmt.Sprint(liveDown) {
		t.Fatalf("restored down set %v != live %v", st.DownNodes(), liveDown)
	}
	// Replay applied the same skip-dark-node release rule: the failed node's
	// residual is still withdrawn.
	if e := st.pin(); e.res[node] != 0 {
		t.Fatalf("replayed ledger resurrected %v MHz on the dark node", e.res[node])
	}
}

// TestReaugmentationRestoresSessions drives the self-healing loop: a node
// failure drops sessions below ρ, re-augmentation rounds re-admit them
// through the normal pipeline, and every outcome is either restored (alert
// resolved) or still alerted — never silent.
func TestReaugmentationRestoresSessions(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ids := admitN(t, svc, 12, 41)
	node := hostingNode(t, svc, ids)
	nr, err := svc.ApplyHealth(node, HealthDown, "crash")
	if err != nil {
		t.Fatal(err)
	}
	if nr.ReaugQueued == 0 {
		t.Skip("failure did not push any session below its expectation")
	}
	restored := 0
	for round := 0; round < 16 && svc.ReaugPending() > 0; round++ {
		rep := svc.AuditOnce()
		restored += rep.Restored
		if viol := svc.SilentViolations(); len(viol) != 0 {
			t.Fatalf("round %d: silent SLO violations %v", round, viol)
		}
	}
	if svc.ReaugPending() != 0 {
		t.Fatalf("%d sessions still queued after 16 rounds", svc.ReaugPending())
	}
	if restored == 0 {
		t.Fatal("no session restored despite four surviving cloudlets")
	}
	// Restored sessions meet ρ again and carry no alert.
	for _, id := range svc.State().PlacementIDs() {
		p, _ := svc.State().Placement(id)
		if p.Met {
			if lvl := svc.Alerter().Level(watchdog.Key{Kind: watchdog.KindSession, ID: id}); lvl != watchdog.OK {
				t.Fatalf("restored session %d still alerted at %v", id, lvl)
			}
		}
	}
}

// TestSettleReaugWhenEveryAttemptFails pins SettleReaug's bound on the worst
// queue: every re-admission fails, so each queued session runs its whole
// backoff (attempts 1, 2 and 4 rounds apart). One call must empty the queue
// within 2^reaugBudget − 1 rounds and end every session lost with a sticky
// alert — never a silent violation.
func TestSettleReaugWhenEveryAttemptFails(t *testing.T) {
	failsafe, _ := core.Get("Failsafe")
	var failing atomic.Bool
	flaky := core.NewSolverFunc("Flaky", func(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
		if failing.Load() {
			return nil, errors.New("induced solver failure")
		}
		return failsafe.Solve(inst, rng)
	})
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 17, Solver: flaky})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ids := admitN(t, svc, 12, 41)
	nr, err := svc.ApplyHealth(hostingNode(t, svc, ids), HealthDown, "crash")
	if err != nil {
		t.Fatal(err)
	}
	var queued []int
	for _, id := range ids {
		if p, ok := svc.State().Placement(id); ok && !p.Met {
			queued = append(queued, id)
		}
	}
	if nr.ReaugQueued == 0 || len(queued) != nr.ReaugQueued {
		t.Fatalf("%d sessions below ρ after the crash, %d queued", len(queued), nr.ReaugQueued)
	}

	failing.Store(true)
	reps := svc.SettleReaug()
	if n := svc.ReaugPending(); n != 0 {
		t.Fatalf("%d sessions still queued after one settle call", n)
	}
	if max := 1<<reaugBudget - 1; len(reps) > max {
		t.Fatalf("settle ran %d rounds, bound is %d", len(reps), max)
	}
	lost := 0
	for i, rep := range reps {
		if rep.Restored != 0 || rep.Degraded != 0 {
			t.Fatalf("round %d re-served a session through a failing solver: %+v", i, rep)
		}
		lost += rep.Lost
	}
	if lost != len(queued) {
		t.Fatalf("%d sessions lost, %d were queued", lost, len(queued))
	}
	for _, id := range queued {
		if _, live := svc.State().Placement(id); live {
			t.Errorf("lost session %d still holds a placement", id)
		}
		if lvl := svc.Alerter().Level(watchdog.Key{Kind: watchdog.KindSession, ID: id}); lvl != watchdog.Crit {
			t.Errorf("lost session %d alerted at %v, want CRIT", id, lvl)
		}
	}
	if viol := svc.SilentViolations(); len(viol) != 0 {
		t.Fatalf("silent SLO violations after settling: %v", viol)
	}
}

// TestProbeLoopReaugmentsFailedSessions turns on the one behaviour that is
// off by default: with Options.ProbeEvery set, the service's own loop — no
// caller runs AuditOnce here — drains the re-augmentation queue a node
// failure filled, leaving every affected session restored or alerted, and
// Close stops the loop's goroutine.
func TestProbeLoopReaugmentsFailedSessions(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 17, ProbeEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ids := admitN(t, svc, 12, 41)
	nr, err := svc.ApplyHealth(hostingNode(t, svc, ids), HealthDown, "crash")
	if err != nil {
		t.Fatal(err)
	}
	if nr.ReaugQueued == 0 {
		t.Fatal("failure did not push any session below its expectation")
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.ReaugPending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("probe loop left %d of %d sessions queued", svc.ReaugPending(), nr.ReaugQueued)
		}
		time.Sleep(time.Millisecond)
	}
	if viol := svc.SilentViolations(); len(viol) != 0 {
		t.Fatalf("silent SLO violations after the probe loop drained the queue: %v", viol)
	}
	met := 0
	for _, id := range svc.State().PlacementIDs() {
		if p, _ := svc.State().Placement(id); p.Met {
			met++
		}
	}
	if met == 0 {
		t.Fatal("no session meets its expectation despite four surviving cloudlets")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the probe and dispatcher goroutines; give the runtime
	// a moment to retire them before counting.
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRestoreRebuildsWatchdogState pins restart semantics: a process that
// crashes after a node failure rebuilds the down set, the cloudlet alert,
// and the re-augmentation queue from the journal alone. A session admitted
// below ρ after the failure is alerted but never queued, live or restored.
func TestRestoreRebuildsWatchdogState(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Workers: 1, Seed: 19,
		WALDir: dir, WALSync: "none", SnapshotEvery: 4,
	}
	svc, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := admitN(t, svc, 12, 43)
	node := hostingNode(t, svc, ids)
	nr, err := svc.ApplyHealth(node, HealthDown, "crash")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := svc.Enqueue(AugmentRequest{SFC: []int{0, 1}, Expectation: 1, Source: 0, Destination: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out := tk.Wait(); out.Status != http.StatusOK || out.Response.MetExpectation {
		t.Fatalf("a request at ρ = 1 answered %d %+v, want 200 below ρ", out.Status, out.Response)
	}
	live := queuedReaug(svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if down := svc2.State().DownNodes(); len(down) != 1 || down[0] != node {
		t.Fatalf("restored down set %v, want [%d]", down, node)
	}
	if lvl := svc2.Alerter().Level(watchdog.Key{Kind: watchdog.KindCloudlet, ID: node}); lvl != watchdog.Crit {
		t.Fatalf("restored cloudlet alert %v, want CRIT", lvl)
	}
	if nr.ReaugQueued == 0 {
		t.Fatal("the failure queued no session: the test needs one")
	}
	if got := queuedReaug(svc2); !reflect.DeepEqual(got, live) {
		t.Fatalf("restore rebuilt the re-augmentation queue %+v, the crashed process held %+v", got, live)
	}
	if viol := svc2.SilentViolations(); len(viol) != 0 {
		t.Fatalf("silent SLO violations after restore: %v", viol)
	}
}

// queuedReaug returns a copy of every re-augmentation entry, by session ID.
func queuedReaug(svc *Service) map[int]reaugEntry {
	svc.reaug.mu.Lock()
	defer svc.reaug.mu.Unlock()
	out := make(map[int]reaugEntry, len(svc.reaug.entries))
	for id, e := range svc.reaug.entries {
		out[id] = *e
	}
	return out
}

// TestRestoreQueuesWhatTheLiveProcessQueued pins the restore rule with no
// node failure at all: a session answered below ρ at admission is alerted,
// never queued for re-augmentation, and a restart must not queue it either —
// or the restarted daemon's first audit would release and re-admit it, where
// an uninterrupted one leaves it alone.
func TestRestoreQueuesWhatTheLiveProcessQueued(t *testing.T) {
	opts := Options{Workers: 1, Seed: 19, WALDir: t.TempDir(), WALSync: "none"}
	svc, err := New(testNetwork(100), opts)
	if err != nil {
		t.Fatal(err)
	}
	below := 0
	for i := 0; i < 12; i++ {
		ar := testRequest(i)
		ar.Expectation = 0.9999
		tk, err := svc.Enqueue(ar)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if out := tk.Wait(); out.Status == http.StatusOK && !out.Response.MetExpectation {
			below++
		}
	}
	if below == 0 {
		t.Fatal("no session was answered below ρ: the test needs one")
	}
	live := queuedReaug(svc)
	if len(live) != 0 {
		t.Fatalf("admission queued %d sessions for re-augmentation, want none", len(live))
	}
	placed := svc.State().PlacedCount()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(testNetwork(100), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := queuedReaug(svc2); !reflect.DeepEqual(got, live) {
		t.Fatalf("restore queued %+v for re-augmentation, the live process %+v", got, live)
	}
	if rep := svc2.AuditOnce(); rep.Attempted != 0 || svc2.State().PlacedCount() != placed {
		t.Fatalf("the first audit after restore attempted %d re-augmentations (remapped %v), want none", rep.Attempted, rep.Remapped)
	}
	if viol := svc2.SilentViolations(); len(viol) != 0 {
		t.Fatalf("silent SLO violations after restore: %v", viol)
	}
}

// TestNodeFailureKeepsTenant pins the billing principal across a node
// failure: the records the failure rewrites, the WAL's copy of them, the
// re-augmented placements and the /v1/tenants accounting all stay with the
// tenant that admitted the session — a re-admission billed to the default
// tenant would bypass the session's own weight and token bucket.
func TestNodeFailureKeepsTenant(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(testNetwork(1000), Options{
		Workers: 1, Seed: 23,
		Tenants: []admission.Tenant{{Name: "gold", Weight: 4}},
		WALDir:  dir, WALSync: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 6; i++ {
		ar := testRequest(i)
		ar.Tenant = "gold"
		tk, err := svc.Enqueue(ar)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if out := tk.Wait(); out.Status == http.StatusOK {
			ids = append(ids, out.Response.ID)
		}
	}
	allGold := func(st *State, when string) {
		t.Helper()
		for _, p := range st.pin().recs {
			if p.Tenant != "gold" {
				t.Fatalf("%s: placement %d belongs to tenant %q, want gold", when, p.ID, p.Tenant)
			}
		}
	}
	nr, err := svc.ApplyHealth(hostingNode(t, svc, ids), HealthDown, "crash")
	if err != nil {
		t.Fatal(err)
	}
	if nr.SessionsAffected == 0 || nr.ReaugQueued == 0 {
		t.Fatalf("failure rewrote %d records and queued %d: the test needs both", nr.SessionsAffected, nr.ReaugQueued)
	}
	allGold(svc.State(), "after the failure")

	reserved := 0
	for round := 0; round < 16 && svc.ReaugPending() > 0; round++ {
		reserved += len(svc.AuditOnce().Remapped)
	}
	if reserved == 0 {
		t.Fatal("no session was re-augmented despite four surviving cloudlets")
	}
	allGold(svc.State(), "after re-augmentation")
	for _, row := range svc.TenantStats().Tenants {
		want := int64(0)
		if row.Name == "gold" {
			want = int64(len(ids) + reserved)
		}
		if row.Admitted != want {
			t.Fatalf("tenant %s billed for %d admissions, want %d", row.Name, row.Admitted, want)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	_, entries, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, r := range e.Updates {
			if r.Tenant != "gold" {
				t.Fatalf("WAL epoch %d journals rewritten placement %d under tenant %q", e.Epoch, r.ID, r.Tenant)
			}
		}
	}
	st, err := NewStateFromWAL(testNetwork(1000), dir)
	if err != nil {
		t.Fatal(err)
	}
	allGold(st, "after the WAL restore")
}

// chaosStream interleaves a deterministic request stream with scripted node
// failures, repairs, and re-augmentation rounds, all from one goroutine. The
// returned log covers placements, node events, and re-augmentation outcomes —
// everything the determinism contract must hold constant.
func chaosStream(t *testing.T, svc *Service, n int, seed int64) (string, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	const wave = 8
	waveIdx := 0
	for submitted := 0; submitted < n; {
		k := wave
		if left := n - submitted; k > left {
			k = left
		}
		tickets := make([]*Ticket, 0, k)
		endWave := svc.BeginWave()
		for i := 0; i < k; i++ {
			sfc := make([]int, 2+rng.Intn(2))
			for j := range sfc {
				sfc[j] = rng.Intn(2)
			}
			tk, err := svc.Enqueue(AugmentRequest{
				SFC: sfc, Expectation: 0.9,
				Source: rng.Intn(5), Destination: rng.Intn(5),
			})
			if err != nil {
				t.Fatalf("enqueue: %v", err)
			}
			tickets = append(tickets, tk)
			submitted++
		}
		endWave()
		for _, tk := range tickets {
			out := tk.Wait()
			if out.Status != http.StatusOK {
				fmt.Fprintf(&log, "status=%d\n", out.Status)
				continue
			}
			r := out.Response
			fmt.Fprintf(&log, "id=%d rel=%.12f met=%v sec=%v\n", r.ID, r.Reliability, r.MetExpectation, r.Secondaries)
		}
		// Scripted chaos: wave 1 kills node 1, wave 3 repairs it, wave 4
		// degrades node 3, wave 6 repairs it. Every wave runs one audit +
		// re-augmentation round.
		switch waveIdx {
		case 1:
			nr, _ := svc.ApplyHealth(1, HealthDown, "scripted")
			fmt.Fprintf(&log, "down node=1 destroyed=%d affected=%d queued=%d\n", nr.InstancesDestroyed, nr.SessionsAffected, nr.ReaugQueued)
		case 3:
			nr, _ := svc.ApplyHealth(1, HealthUp, "scripted")
			fmt.Fprintf(&log, "up node=1 epoch-installed=%v\n", nr.Epoch > 0)
		case 4:
			svc.ApplyHealth(3, HealthDegraded, "scripted")
			fmt.Fprintf(&log, "degraded node=3\n")
		case 6:
			svc.ApplyHealth(3, HealthUp, "scripted")
			fmt.Fprintf(&log, "up node=3\n")
		}
		rep := svc.AuditOnce()
		fmt.Fprintf(&log, "reaug attempted=%d restored=%d degraded=%d lost=%d\n",
			rep.Attempted, rep.Restored, rep.Degraded, rep.Lost)
		if viol := svc.SilentViolations(); len(viol) != 0 {
			t.Fatalf("wave %d: silent SLO violations %v", waveIdx, viol)
		}
		waveIdx++
	}
	return log.String(), svc.State().Hash()
}

// TestChaosDeterminismAcrossBatchers extends the bit-identity contract to
// failure handling: the full chaos log — placements, node events, destroyed
// instance counts, re-augmentation outcomes — and the final ledger hash are
// identical on one batcher and on four.
func TestChaosDeterminismAcrossBatchers(t *testing.T) {
	run := func(batchers int) (string, uint64) {
		svc, err := New(testNetwork(1000), Options{
			Workers: 2, Batchers: batchers, Seed: 23,
			BatchSize: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Drain()
		return chaosStream(t, svc, 64, 29)
	}
	log1, hash1 := run(1)
	log4, hash4 := run(4)
	if log1 != log4 {
		t.Fatalf("chaos logs differ between 1 and 4 batchers:\n--- 1 ---\n%s--- 4 ---\n%s", log1, log4)
	}
	if hash1 != hash4 {
		t.Fatalf("final state hash differs: %016x vs %016x", hash1, hash4)
	}
}

// TestNodeAndAlertsEndpoints exercises the HTTP surface: POST /v1/node
// applies a transition, GET /v1/alerts reflects it, GET /v1/state lists the
// down node.
func TestNodeAndAlertsEndpoints(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	h := svc.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/node",
		strings.NewReader(`{"node": 2, "health": "down", "note": "ops"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/node: %d %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/alerts", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/alerts: %d", rec.Code)
	}
	var view watchdog.View
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	foundCloudlet := false
	for _, a := range view.Active {
		if a.Key.Kind == watchdog.KindCloudlet && a.Key.ID == 2 && a.Level == "CRIT" {
			foundCloudlet = true
		}
	}
	if !foundCloudlet {
		t.Fatalf("alerts view missing CRIT for cloudlet 2: %+v", view.Active)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state", nil))
	var st StateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.DownNodes) != 1 || st.DownNodes[0] != 2 {
		t.Fatalf("/v1/state down_nodes %v, want [2]", st.DownNodes)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/node",
		strings.NewReader(`{"node": 2, "health": "sideways"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad health state answered %d, want 400", rec.Code)
	}
}
