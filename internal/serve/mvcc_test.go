package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve/wal"
)

// heldMHz is the ledger consumption a placement record holds, summed in the
// ascending node order Release returns it in.
func heldMHz(p wal.PlacedRecord) float64 {
	total := 0.0
	for _, v := range sortedNodes(p.PerNode) {
		total += p.PerNode[v]
	}
	return total
}

// runStream drives svc with a deterministic request stream from a single
// goroutine, in declared waves (the Enqueue determinism contract), optionally
// releasing every releaseEvery-th admitted placement between waves. It
// returns a timing-independent placement log plus the final state hash.
func runStream(t testing.TB, svc *Service, n int, seed int64, releaseEvery int) (string, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	var admitted []int
	const wave = 16
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
				t.Fatalf("enqueue %d: %v", submitted, err)
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
			fmt.Fprintf(&log, "id=%d rel=%.12f met=%v counts=%v sec=%v\n",
				r.ID, r.Reliability, r.MetExpectation, r.BackupCounts, r.Secondaries)
			admitted = append(admitted, r.ID)
		}
		if releaseEvery > 0 {
			for len(admitted) >= releaseEvery {
				id := admitted[releaseEvery-1]
				admitted = admitted[releaseEvery:]
				if _, err := svc.State().Release(id); err != nil {
					t.Fatalf("release %d: %v", id, err)
				}
			}
		}
	}
	return log.String(), svc.State().Hash()
}

// TestBatcherCountDeterminism pins the serving guarantee: placements, the
// final ledger and the epoch count are bit-identical at any worker × batcher
// count. The second stream saturates the ledger, so one run holds admitting
// batches, within-batch commit conflicts (one serial re-solve each) and
// all-infeasible identity batches that install nothing.
func TestBatcherCountDeterminism(t *testing.T) {
	type result struct {
		log          string
		hash, epochs uint64
	}
	for _, stream := range []struct {
		capacity     float64
		releaseEvery int
		saturates    bool
	}{
		{capacity: 1000, releaseEvery: 5},
		{capacity: 150, saturates: true},
	} {
		var ref result
		for _, workers := range []int{1, 8} {
			for _, batchers := range []int{1, 4} {
				svc, err := New(testNetwork(stream.capacity), Options{
					Workers: workers, Batchers: batchers, Seed: 7,
					BatchSize: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				batches, conflicts := metrics.batches.Value(), metrics.conflicts.Value()
				log, hash := runStream(t, svc, 64, 11, stream.releaseEvery)
				svc.Drain()
				got := result{log, hash, svc.State().Epoch()}
				if stream.saturates {
					switch {
					case !strings.Contains(log, "id="):
						t.Fatal("saturating stream admitted nothing")
					case metrics.conflicts.Value() == conflicts:
						t.Fatal("saturating stream hit no within-batch commit conflict")
					case uint64(metrics.batches.Value()-batches) <= got.epochs:
						t.Fatal("saturating stream ran no identity batch")
					}
				}
				if workers == 1 && batchers == 1 {
					ref = got
					continue
				}
				if got.log != ref.log {
					t.Fatalf("capacity %v: placement log at workers=%d batchers=%d differs from 1/1:\n--- 1/1 ---\n%s--- %d/%d ---\n%s",
						stream.capacity, workers, batchers, ref.log, workers, batchers, got.log)
				}
				if got.hash != ref.hash || got.epochs != ref.epochs {
					t.Fatalf("capacity %v: workers=%d batchers=%d ended at hash %016x after %d epochs, 1/1 at %016x after %d",
						stream.capacity, workers, batchers, got.hash, got.epochs, ref.hash, ref.epochs)
				}
			}
		}
	}
}

// TestLedgerConservationOverAdmitReleaseCycles pins the residual-clamping
// fix: what a release returns is exactly what the commit consumed, so
// repeated admit/release cycles leave the ledger bit-identical (the old
// math.Min clamp could consume less than it later released, slowly inflating
// residual capacity).
func TestLedgerConservationOverAdmitReleaseCycles(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	h0 := svc.State().Hash()
	cloudlets0, _, _ := svc.State().Snapshot()

	for cycle := 0; cycle < 20; cycle++ {
		tk, err := svc.Enqueue(testRequest(cycle))
		if err != nil {
			t.Fatal(err)
		}
		out := tk.Wait()
		if out.Status != http.StatusOK {
			t.Fatalf("cycle %d: status %d (%s)", cycle, out.Status, out.Err)
		}
		p, ok := svc.State().Placement(out.Response.ID)
		if !ok {
			t.Fatalf("cycle %d: placement %d not recorded", cycle, out.Response.ID)
		}
		freed, err := svc.State().Release(out.Response.ID)
		if err != nil {
			t.Fatal(err)
		}
		if held := heldMHz(p); freed != held {
			t.Fatalf("cycle %d: released %v MHz, placement recorded %v", cycle, freed, held)
		}
		if h := svc.State().Hash(); h != h0 {
			cloudlets, _, _ := svc.State().Snapshot()
			for i := range cloudlets {
				if cloudlets[i].Residual != cloudlets0[i].Residual {
					t.Fatalf("cycle %d: node %d residual drifted %v -> %v",
						cycle, cloudlets[i].ID, cloudlets0[i].Residual, cloudlets[i].Residual)
				}
			}
			t.Fatalf("cycle %d: ledger hash drifted %016x -> %016x", cycle, h0, h)
		}
	}
}

// TestConcurrentReleaseRacingBatchCommit races /v1/release against batch
// commits on four batchers (run it under -race): the ledger must conserve
// capacity exactly, and replaying the WAL — the serial record of the same
// event order — must rebuild the identical state hash and placement map.
func TestConcurrentReleaseRacingBatchCommit(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(testNetwork(1000), Options{
		Workers: 2, Batchers: 4, Seed: 9,
		BatchSize: 4,
		WALDir:    dir, WALSync: "none", SnapshotEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	releaseCh := make(chan int, 256)
	var wg sync.WaitGroup
	wg.Add(1)
	released := 0
	go func() {
		defer wg.Done()
		for id := range releaseCh {
			if _, err := svc.State().Release(id); err == nil {
				released++
			}
		}
	}()

	rng := rand.New(rand.NewSource(5))
	admitted := 0
	for wave := 0; wave < 8; wave++ {
		tickets := make([]*Ticket, 0, 16)
		for i := 0; i < 16; i++ {
			sfc := make([]int, 2+rng.Intn(2))
			for j := range sfc {
				sfc[j] = rng.Intn(2)
			}
			tk, err := svc.Enqueue(AugmentRequest{
				SFC: sfc, Expectation: 0.9,
				Source: rng.Intn(5), Destination: rng.Intn(5),
			})
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		for i, tk := range tickets {
			out := tk.Wait()
			if out.Status == http.StatusOK {
				admitted++
				if i%3 == 0 {
					// Hand the ID to the releaser while later waves commit.
					releaseCh <- out.Response.ID
				}
			}
		}
	}
	close(releaseCh)
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if admitted == 0 {
		t.Fatal("workload admitted nothing; the race exercised no commits")
	}

	// Conservation: every consumed MHz is attributed to a live placement.
	cloudlets, _, liveHash := svc.State().Snapshot()
	totalResidual, totalCapacity := 0.0, 0.0
	for _, c := range cloudlets {
		totalResidual += c.Residual
		totalCapacity += c.Capacity
	}
	totalHeld := 0.0
	for id := 1; id <= 1024; id++ {
		if p, ok := svc.State().Placement(id); ok {
			totalHeld += heldMHz(p)
		}
	}
	if totalResidual+totalHeld != totalCapacity {
		t.Fatalf("ledger does not conserve: residual %v + held %v != capacity %v",
			totalResidual, totalHeld, totalCapacity)
	}

	// Serial replay of the same event order (the WAL) rebuilds the state.
	restored, err := NewStateFromWAL(testNetwork(1000), dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Hash() != liveHash {
		t.Fatalf("replayed hash %016x != live %016x", restored.Hash(), liveHash)
	}
	if restored.PlacedCount() != svc.State().PlacedCount() {
		t.Fatalf("replayed %d placements, live has %d", restored.PlacedCount(), svc.State().PlacedCount())
	}
	if restored.Epoch() != svc.State().Epoch() {
		t.Fatalf("replayed epoch %d != live %d", restored.Epoch(), svc.State().Epoch())
	}
}

// conservationErr audits one epoch the way a WAL checkpoint journals it: on
// every cloudlet that is up, capacity − residual must equal the MHz the
// epoch's placement records hold there, summed in ID order.
func conservationErr(st *State, e *epochLedger) error {
	for _, v := range st.base.Cloudlets() {
		if e.health(v) != HealthUp {
			continue // a dark node's residual is withdrawn, a degraded one's scaled
		}
		held := 0.0
		for _, p := range e.recs {
			held += p.PerNode[v]
		}
		capV := st.base.Capacity[v]
		if used := capV - e.res[v]; math.Abs(used-held) > 1e-9*math.Max(1, capV) {
			return fmt.Errorf("epoch %d cloudlet %d: ledger has %v MHz consumed, the %d records hold %v",
				e.seq, v, used, len(e.recs), held)
		}
	}
	return nil
}

// TestCheckpointNeverSeesHalfARelease hammers releases from two goroutines
// against admissions while a checker pins epochs, with no lock, and audits
// each the way a WAL checkpoint serializes it (conservationErr). A release
// whose record vanished before its capacity returned would checkpoint a
// ledger that has lost that capacity for good.
func TestCheckpointNeverSeesHalfARelease(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, Batchers: 2, BatchSize: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	st := svc.State()

	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	checks := 0
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			checks++
			if err := conservationErr(st, st.pin()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	ids := make(chan int, 64)
	var releasers sync.WaitGroup
	for g := 0; g < 2; g++ {
		releasers.Add(1)
		go func() {
			defer releasers.Done()
			for id := range ids {
				if _, err := svc.Release(id); err != nil {
					t.Errorf("release %d: %v", id, err)
				}
			}
		}()
	}
	admitted := 0
	for i := 0; i < 600; i++ {
		tk, err := svc.Enqueue(testRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		if out := tk.Wait(); out.Status == http.StatusOK {
			admitted++
			ids <- out.Response.ID
		}
	}
	close(ids)
	releasers.Wait()
	close(stop)
	checker.Wait()
	if admitted < 300 || checks == 0 {
		t.Fatalf("hammer too weak: %d admissions, %d checkpoint audits", admitted, checks)
	}
	if n := st.PlacedCount(); n != 0 {
		t.Fatalf("%d placements left after releasing every admission", n)
	}
}

// TestInstalledRecordsNeverChange drives one state through a seeded mix of
// installs — admits above every live ID and below some, releases of the
// lowest ID and of others, health rewrites — keeping every installed epoch.
// After each install the new epoch must list exactly the model's IDs, in
// order, and every epoch kept so far exactly the records it was installed
// with: successors share an epoch's backing array
// when they append past its end or drop its first slot, and must never
// write where an installed epoch looks.
func TestInstalledRecordsNeverChange(t *testing.T) {
	st := NewState(testNetwork(1000))
	rng := rand.New(rand.NewSource(3))
	type kept struct {
		e    *epochLedger
		recs []*wal.PlacedRecord
	}
	var epochs []kept
	var model []int // the live IDs, ascending
	next := 1
	for step := 0; step < 600; step++ {
		live := st.pin().recs
		var op installOp
		switch r := rng.Intn(20); {
		case r < 6 || len(live) == 0: // admits above every live ID, in order
			for k := 1 + rng.Intn(4); k > 0; k-- {
				op.admits = append(op.admits, &wal.PlacedRecord{ID: next})
				next += 1 + rng.Intn(3)
			}
		case r < 8: // one admit below the newest, fair-queueing style
			if id := live[len(live)-1].ID - 1; !slices.ContainsFunc(live, func(p *wal.PlacedRecord) bool { return p.ID == id }) {
				op.admits = append(op.admits, &wal.PlacedRecord{ID: id})
			}
		case r < 16: // release the lowest ID
			op.releases = []int{live[0].ID}
		case r < 18: // release the newest
			op.releases = []int{live[len(live)-1].ID}
		case r < 19: // release another
			op.releases = []int{live[rng.Intn(len(live))].ID}
		default: // rewrite one in place
			op.updates = []*wal.PlacedRecord{{ID: live[rng.Intn(len(live))].ID, Met: true}}
		}
		for _, p := range op.admits {
			model = append(model, p.ID)
		}
		model = slices.DeleteFunc(model, func(id int) bool { return slices.Contains(op.releases, id) })
		slices.Sort(model)
		res := st.pin().res
		st.commitMu.Lock()
		st.installLocked(res, op)
		st.commitMu.Unlock()
		e := st.pin()
		epochs = append(epochs, kept{e, slices.Clone(e.recs)})
		if ids := st.PlacementIDs(); !slices.Equal(ids, model) {
			t.Fatalf("step %d (%+v): epoch %d lists IDs %v, want %v", step, op, e.seq, ids, model)
		}
		for _, k := range epochs {
			if !slices.Equal(k.e.recs, k.recs) {
				t.Fatalf("step %d (%+v): epoch %d was installed with %d records and now lists %d, or other ones",
					step, op, k.e.seq, len(k.recs), len(k.e.recs))
			}
		}
	}
}

// TestRestartNeverReissuesAnID releases the highest placement ID and
// restarts on the WAL directory, once with no checkpoint and once with one
// taken after every install (so the released admission is gone from the
// log): the next admission must get a new ID, never the released one — a
// client retrying its release would otherwise tear down a stranger's
// session.
func TestRestartNeverReissuesAnID(t *testing.T) {
	for _, every := range []int{256, 1} {
		opts := Options{Workers: 1, Seed: 5, WALDir: t.TempDir(), WALSync: "none", SnapshotEvery: every}
		svc, err := New(testNetwork(1000), opts)
		if err != nil {
			t.Fatal(err)
		}
		admit := func(svc *Service, i int) int {
			t.Helper()
			tk, err := svc.Enqueue(testRequest(i))
			if err != nil {
				t.Fatal(err)
			}
			out := tk.Wait()
			if out.Status != http.StatusOK {
				t.Fatalf("snapshot every %d: admission %d answered %d: %s", every, i, out.Status, out.Err)
			}
			return out.Response.ID
		}
		last := 0
		for i := 0; i < 3; i++ {
			last = admit(svc, i)
		}
		if _, err := svc.Release(last); err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		svc2, err := New(testNetwork(1000), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := svc2.State().MaxPlacedID(); got != last {
			t.Errorf("snapshot every %d: restored max placement ID %d, want %d", every, got, last)
		}
		if id := admit(svc2, 3); id <= last {
			t.Errorf("snapshot every %d: released ID %d, then the restarted service issued %d", every, last, id)
		}
		if err := svc2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreBootsIdenticalService runs a WAL-backed workload, then boots a
// second service on the same WAL directory and checks it serves the exact
// pre-shutdown state — and keeps appending to the same log.
func TestRestoreBootsIdenticalService(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Workers: 1, Seed: 5,
		WALDir: dir, WALSync: "none", SnapshotEvery: 4,
	}
	svc, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	_, hash := runStream(t, svc, 24, 13, 4)
	placed := svc.State().PlacedCount()
	epoch := svc.State().Epoch()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if placed == 0 {
		t.Fatal("workload left nothing placed; restore would be vacuous")
	}

	svc2, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.State().Hash(); got != hash {
		t.Fatalf("restored hash %016x != pre-shutdown %016x", got, hash)
	}
	if got := svc2.State().PlacedCount(); got != placed {
		t.Fatalf("restored %d placements, want %d", got, placed)
	}
	if got := svc2.State().Epoch(); got != epoch {
		t.Fatalf("restored epoch %d, want %d", got, epoch)
	}
	// The restored service keeps serving: a release of a replayed placement
	// and a fresh admission both work against the restored ledger.
	var anyID int
	for id := 1; id <= 1024; id++ {
		if _, ok := svc2.State().Placement(id); ok {
			anyID = id
			break
		}
	}
	if _, err := svc2.State().Release(anyID); err != nil {
		t.Fatalf("release of replayed placement %d: %v", anyID, err)
	}
	tk, err := svc2.Enqueue(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if out := tk.Wait(); out.Status != http.StatusOK {
		t.Fatalf("fresh admission after restore answered %d (%s)", out.Status, out.Err)
	}
}

// refHashResiduals is the state hash through hash/fnv: each value's bits,
// little-endian, written to a New64a. hashResiduals must match it bit for bit.
func refHashResiduals(res []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestStateHashMatchesReference pins that the inlined FNV-1a loop of the
// state hash equals hash/fnv's (WAL and trace hashes recorded by older builds
// stay comparable), on random vectors salted with the values whose bits a
// float comparison would blur: NaNs of several payloads, ±0 and ±Inf.
func TestStateHashMatchesReference(t *testing.T) {
	special := []float64{
		math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_dead_beef_0001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	}
	if got, want := hashResiduals(nil), refHashResiduals(nil); got != want {
		t.Fatalf("empty vector: hashResiduals %016x != reference %016x", got, want)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		res := make([]float64, 1+rng.Intn(256))
		for i := range res {
			res[i] = rng.Float64() * 8000
			if rng.Intn(8) == 0 {
				res[i] = special[rng.Intn(len(special))]
			}
		}
		if got, want := hashResiduals(res), refHashResiduals(res); got != want {
			t.Fatalf("trial %d: hashResiduals %016x != reference %016x", trial, got, want)
		}
	}
}

// BenchmarkStateHash guards the state-hash hot path: it runs once per batch
// execution, release and health transition, over the full residual vector.
func BenchmarkStateHash(b *testing.B) {
	res := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range res {
		res[i] = rng.Float64() * 8000
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = hashResiduals(res)
	}
	_ = sink
}

// TestReopenedWALDirContinuesHistory pins that one WAL directory is one
// history: a service built on a directory another service wrote — nothing
// else set — boots from that log, so what it appends continues it. Starting
// from a fresh ledger and appending would leave a log whose replay mixes two
// histories: phantom placements, and an epoch that restarts at 1.
func TestReopenedWALDirContinuesHistory(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, Seed: 5, WALDir: dir, WALSync: "none", SnapshotEvery: 4}
	svc, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, svc, 24, 13, 4) // admissions and releases
	oldIDs := svc.State().PlacementIDs()
	oldEpoch := svc.State().Epoch()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if len(oldIDs) == 0 {
		t.Fatal("first process left nothing placed; the reopen would be vacuous")
	}

	svc2, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	newIDs := admitN(t, svc2, 6, 29)
	if len(newIDs) == 0 {
		t.Fatal("second process admitted nothing")
	}
	maxOld := oldIDs[len(oldIDs)-1]
	for _, id := range newIDs {
		if id <= maxOld {
			t.Fatalf("new placement ID %d does not continue above the first process's %d", id, maxOld)
		}
	}
	live := svc2.State()
	hash, placed, epoch := live.Hash(), live.PlacedCount(), live.Epoch()
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	if placed != len(oldIDs)+len(newIDs) || epoch <= oldEpoch {
		t.Fatalf("second process holds %d placements at epoch %d; the first left %d at epoch %d and %d were added",
			placed, epoch, len(oldIDs), oldEpoch, len(newIDs))
	}
	st, err := NewStateFromWAL(testNetwork(1000), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash() != hash || st.PlacedCount() != placed || st.Epoch() != epoch {
		t.Fatalf("directory replays to hash=%016x placed=%d epoch=%d, live was hash=%016x placed=%d epoch=%d",
			st.Hash(), st.PlacedCount(), st.Epoch(), hash, placed, epoch)
	}
}

// TestReadersSeeOneVersion pins that every state reader sees one installed
// version. One goroutine runs a fixed cycle of four epoch installs — admit a
// request, take cloudlet 2 down, bring it up, release the request — so an
// epoch's offset from the start decides its whole content: cycle c's
// placement, ID c+1, is live at offsets 1–3 (mod 4) and cloudlet 2 is down,
// with residual 0, at offset 2 alone. Another goroutine reads GET /v1/state,
// and Snapshot()+DownNodes()+PlacedCount()+PlacementIDs()+Placement()
// bracketed by a second Snapshot(); a read whose residual, down set,
// placement count or records belong to a different epoch than the one it
// reports fails.
func TestReadersSeeOneVersion(t *testing.T) {
	const node, cycles = 2, 150
	svc, err := New(testNetwork(1000), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	e0 := svc.State().Epoch()

	type view struct {
		epoch  uint64
		placed int
		down   []int
		res    float64
	}
	check := func(via string, v view) {
		t.Helper()
		k := (v.epoch - e0) % 4
		wantPlaced, wantDown := 0, k == 2
		if k != 0 {
			wantPlaced = 1
		}
		if v.placed != wantPlaced || slices.Contains(v.down, node) != wantDown || (v.res == 0) != wantDown {
			t.Errorf("%s at epoch %d: placed=%d down=%v residual(%d)=%v; that epoch has placed=%d, cloudlet %d down=%v",
				via, v.epoch, v.placed, v.down, node, v.res, wantPlaced, node, wantDown)
		}
	}
	residual := func(cloudlets []CloudletState) float64 {
		for _, c := range cloudlets {
			if c.ID == node {
				return c.Residual
			}
		}
		t.Fatalf("cloudlet %d missing from the state", node)
		return 0
	}

	finished := make(chan struct{})
	writeErr := make(chan error, 1)
	go func() {
		defer close(finished)
		for i := 0; i < cycles; i++ {
			tk, err := svc.Enqueue(testRequest(i))
			if err != nil {
				writeErr <- err
				return
			}
			out := tk.Wait()
			if out.Status != http.StatusOK || out.Response.ID != i+1 {
				writeErr <- fmt.Errorf("cycle %d: admit answered %d, ID %d: %s", i, out.Status, out.Response.ID, out.Err)
				return
			}
			for _, h := range []string{HealthDown, HealthUp} {
				if _, err := svc.ApplyHealth(node, h, "toggle"); err != nil {
					writeErr <- err
					return
				}
			}
			if _, err := svc.Release(out.Response.ID); err != nil {
				writeErr <- err
				return
			}
		}
	}()

	reads, bracketed := 0, 0
read:
	for !t.Failed() {
		select {
		case <-finished:
			break read
		default:
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state", nil))
		var st StateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		check("GET /v1/state", view{st.Epoch, st.Placed, st.DownNodes, residual(st.Cloudlets)})

		cloudlets, epoch, _ := svc.State().Snapshot()
		down, placed, ids := svc.State().DownNodes(), svc.State().PlacedCount(), svc.State().PlacementIDs()
		// The cycle whose request an epoch at offset 1–3 holds; at offset 0
		// neither the last cycle's request nor the next one's is live.
		cycle := int(epoch-e0) / 4
		_, foundPrev := svc.State().Placement(cycle)
		_, found := svc.State().Placement(cycle + 1)
		if _, again, _ := svc.State().Snapshot(); again == epoch {
			// Epochs only advance, so every accessor read the bracketed one.
			check("Snapshot+DownNodes+PlacedCount", view{epoch, placed, down, residual(cloudlets)})
			live := (epoch-e0)%4 != 0
			if len(ids) != placed || live != slices.Equal(ids, []int{cycle + 1}) || live != found || foundPrev {
				t.Errorf("PlacementIDs+Placement at epoch %d: IDs %v (placed=%d), placement %d found=%v, placement %d found=%v; that epoch holds placement %d=%v",
					epoch, ids, placed, cycle+1, found, cycle, foundPrev, cycle+1, live)
			}
			bracketed++
		}
		reads++
	}
	<-finished
	select {
	case err := <-writeErr:
		t.Fatal(err)
	default:
	}
	if got, want := svc.State().Epoch(), e0+4*cycles; got != want && !t.Failed() {
		t.Fatalf("writer ended at epoch %d, want %d: some cycle step installed no epoch or more than one", got, want)
	}
	if bracketed == 0 {
		t.Fatalf("none of %d accessor reads stayed within one epoch; the test checked nothing", reads)
	}
}

// TestEpochHashIsTakenOnDemand drives a determinism run — waves of one batch
// each, releases, a cloudlet going down and coming back, and a wave that is
// entirely infeasible — at workers {1,8} × batchers {1,4}, and captures
// every installed epoch as it is installed, with the hash of its residuals
// taken then. No installed epoch may have hashed itself by the end of the
// run (nothing read a hash). Read afterwards, each epoch's hash must equal
// hashResiduals of its residuals as captured, so a later install that wrote
// into an earlier epoch's residual array would show; the infeasible wave
// must install no epoch; and every combination must install the same
// hashes.
func TestEpochHashIsTakenOnDemand(t *testing.T) {
	const wave, node = 4, 2
	var ref []uint64
	for _, workers := range []int{1, 8} {
		for _, batchers := range []int{1, 4} {
			svc, err := New(testNetwork(200), Options{Workers: workers, Batchers: batchers, Seed: 7, BatchSize: wave})
			if err != nil {
				t.Fatal(err)
			}
			epochs := []*epochLedger{svc.state.pin()}
			captured := []uint64{hashResiduals(epochs[0].res)}
			// capture records the epoch the last step installed, if any:
			// every step installs at most one.
			capture := func(step string) bool {
				t.Helper()
				e, last := svc.state.pin(), epochs[len(epochs)-1]
				if e == last {
					return false
				}
				if e.seq != last.seq+1 {
					t.Fatalf("%s installed epochs %d..%d, want at most one", step, last.seq+1, e.seq)
				}
				epochs = append(epochs, e)
				captured = append(captured, hashResiduals(e.res))
				return true
			}
			rng := rand.New(rand.NewSource(11))
			submit := func(step string, pinned bool) {
				t.Helper()
				end := svc.BeginWave()
				tickets := make([]*Ticket, wave)
				for i := range tickets {
					ar := AugmentRequest{SFC: []int{rng.Intn(2), rng.Intn(2)}, Expectation: 0.9, Source: rng.Intn(5), Destination: rng.Intn(5)}
					if pinned {
						ar.Primaries = []int{node, node} // down: no capacity
					}
					var err error
					if tickets[i], err = svc.Enqueue(ar); err != nil {
						t.Fatal(err)
					}
				}
				end()
				for _, tk := range tickets {
					if out := tk.Wait(); out.Status == http.StatusOK && pinned {
						t.Fatalf("%s: a request pinned to down cloudlet %d was placed", step, node)
					}
				}
			}
			phase := func(name string, waves int) {
				for w := 0; w < waves; w++ {
					step := fmt.Sprintf("%s wave %d", name, w)
					submit(step, false)
					capture(step)
					if live := svc.State().PlacementIDs(); len(live) > 3 {
						if _, err := svc.Release(live[1]); err != nil {
							t.Fatal(err)
						}
						if !capture(step + " release") {
							t.Fatalf("%s: the release installed no epoch", step)
						}
					}
				}
			}
			health := func(to string) {
				t.Helper()
				if _, err := svc.ApplyHealth(node, to, "drill"); err != nil {
					t.Fatal(err)
				}
				if !capture(to) {
					t.Fatalf("cloudlet %d %s installed no epoch", node, to)
				}
			}
			phase("before", 6)
			health(HealthDown)
			submit("infeasible wave", true)
			if capture("infeasible wave") {
				t.Fatal("the all-infeasible wave installed an epoch")
			}
			health(HealthUp)
			phase("after", 6)
			svc.Drain()

			var got []uint64
			for i, e := range epochs[1:] {
				if e.hashVal != 0 {
					t.Fatalf("workers=%d batchers=%d: epoch %d hashed itself before anything read its hash", workers, batchers, e.seq)
				}
				if h := e.hash(); h != captured[i+1] {
					t.Fatalf("workers=%d batchers=%d: epoch %d hashes to %016x, its residuals were %016x when installed", workers, batchers, e.seq, h, captured[i+1])
				}
				got = append(got, e.hash())
			}
			if svc.State().Hash() != got[len(got)-1] {
				t.Fatalf("Hash() %016x, the last epoch's %016x", svc.State().Hash(), got[len(got)-1])
			}
			if ref == nil {
				ref = got
				if len(ref) < 20 {
					t.Fatalf("the run installed %d epochs; it exercises too little", len(ref))
				}
				continue
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("workers=%d batchers=%d installed hashes %x, 1/1 installed %x", workers, batchers, got, ref)
			}
		}
	}
}

// TestEpochHashUnderConcurrentReaders races hash readers against installs:
// one goroutine admits, releases and toggles a cloudlet's health while
// others read GET /v1/state, State().Hash() and a pinned epoch's hash, each
// possibly the first read of its epoch's hash. Every hash read must equal
// hashResiduals of the residuals it was read with; under -race, two readers
// computing one epoch's hash at once show as a data race.
func TestEpochHashUnderConcurrentReaders(t *testing.T) {
	const node, cycles = 2, 100
	svc, err := New(testNetwork(1000), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	// The writer starts once every reader has read once.
	var ready sync.WaitGroup
	ready.Add(3)
	finished := make(chan struct{})
	writeErr := make(chan error, 1)
	go func() {
		defer close(finished)
		ready.Wait()
		for i := 0; i < cycles; i++ {
			tk, err := svc.Enqueue(testRequest(i))
			if err != nil {
				writeErr <- err
				return
			}
			out := tk.Wait()
			if out.Status != http.StatusOK {
				writeErr <- fmt.Errorf("cycle %d: admit answered %d: %s", i, out.Status, out.Err)
				return
			}
			for _, h := range []string{HealthDown, HealthUp} {
				if _, err := svc.ApplyHealth(node, h, "toggle"); err != nil {
					writeErr <- err
					return
				}
			}
			if _, err := svc.Release(out.Response.ID); err != nil {
				writeErr <- err
				return
			}
		}
	}()

	residuals := func(cloudlets []CloudletState) []float64 {
		res := make([]float64, len(cloudlets))
		for i, c := range cloudlets {
			res[i] = c.Residual // every AP of testNetwork is a cloudlet, in node order
		}
		return res
	}
	var wg sync.WaitGroup
	reads := make([]int, 3)
	for r := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if reads[r] == 0 {
					ready.Done() // failed on its first read: release the writer
				}
			}()
			for {
				select {
				case <-finished:
					return
				default:
				}
				switch r {
				case 0:
					rec := httptest.NewRecorder()
					svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state", nil))
					var st StateResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
						t.Error(err)
						return
					}
					if want := fmt.Sprintf("%016x", hashResiduals(residuals(st.Cloudlets))); st.StateHash != want {
						t.Errorf("GET /v1/state at epoch %d: state_hash %s, its residuals hash to %s", st.Epoch, st.StateHash, want)
						return
					}
				case 1:
					cloudlets, epoch, h := svc.State().Snapshot()
					if want := hashResiduals(residuals(cloudlets)); h != want {
						t.Errorf("Snapshot at epoch %d: hash %016x, its residuals hash to %016x", epoch, h, want)
						return
					}
				case 2:
					e := svc.state.pin()
					if h, want := svc.State().Hash(), hashResiduals(e.res); svc.state.pin() == e && h != want {
						t.Errorf("Hash() at epoch %d: %016x, its residuals hash to %016x", e.seq, h, want)
						return
					}
					if h, want := e.hash(), hashResiduals(e.res); h != want {
						t.Errorf("epoch %d hashes to %016x, its residuals to %016x", e.seq, h, want)
						return
					}
				}
				if reads[r]++; reads[r] == 1 {
					ready.Done()
				}
			}
		}()
	}
	<-finished
	wg.Wait()
	select {
	case err := <-writeErr:
		t.Fatal(err)
	default:
	}
}
