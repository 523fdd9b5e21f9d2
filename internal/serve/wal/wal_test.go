package wal

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func entry(epoch uint64, res []float64) Entry {
	return Entry{
		Epoch:    epoch,
		Hash:     "deadbeefdeadbeef",
		Residual: res,
		Admits: []PlacedRecord{{
			ID: int(epoch), SFC: []int{0, 1}, Expectation: 0.95,
			Primaries: []int{2, 3}, Secondaries: [][]int{{2}, {3, 3}},
			Reliability: 0.97, Met: true, Algorithm: "Heuristic",
			PerNode: map[int]float64{2: 400, 3: 900},
		}},
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	// Awkward floats must round-trip bit-exactly through the JSON frames.
	res := []float64{1000.0 / 3.0, math.Nextafter(4000, 0), 0, 123.456e-7}
	if _, err := l.Append(entry(1, res)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Epoch: 2, Hash: "0", Residual: res, Releases: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snap, entries, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	for i, v := range entries[0].Residual {
		if math.Float64bits(v) != math.Float64bits(res[i]) {
			t.Fatalf("residual %d not bit-identical: %x vs %x", i, math.Float64bits(v), math.Float64bits(res[i]))
		}
	}
	a := entries[0].Admits[0]
	if a.ID != 1 || a.PerNode[3] != 900 || len(a.Secondaries[1]) != 2 {
		t.Fatalf("admit record mangled: %+v", a)
	}
	if entries[1].Releases[0] != 1 {
		t.Fatalf("release record mangled: %+v", entries[1])
	}
}

func TestTornTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		if _, err := l.Append(entry(e, []float64{float64(e)})); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the final frame mid-line, as a crash during append would.
	path := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, entries, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Epoch != 2 {
		t.Fatalf("torn tail: replayed %d entries (last %v), want the 2 intact ones", len(entries), entries)
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 2; e++ {
		if _, err := l.Append(entry(e, []float64{float64(e)})); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, "wal.log")
	raw, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(raw), "\n")
	corrupted := "00000000" + lines[0][8:] + lines[1]
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Replay(dir); err == nil {
		t.Fatal("mid-log corruption with intact entries after it replayed without error")
	}
}

func TestSnapshotTruncatesAndSubsumes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for e := uint64(1); e <= 4; e++ {
		if _, err := l.Append(entry(e, []float64{float64(e)})); err != nil {
			t.Fatal(err)
		}
	}
	snap := Snapshot{Epoch: 4, Hash: "abc", Residual: []float64{4}, Placed: []PlacedRecord{{ID: 9, PerNode: map[int]float64{0: 1}}}}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	tok, err := l.Append(entry(5, []float64{5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Sync(tok); err != nil {
		t.Fatal(err)
	}
	if l.Entries() != 5 || l.Snapshots() != 1 {
		t.Fatalf("counters entries=%d snapshots=%d", l.Entries(), l.Snapshots())
	}

	got, entries, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != 4 || got.Placed[0].ID != 9 {
		t.Fatalf("snapshot not replayed: %+v", got)
	}
	if len(entries) != 1 || entries[0].Epoch != 5 {
		t.Fatalf("post-snapshot entries %v, want just epoch 5", entries)
	}
}

func TestReplayEmptyDir(t *testing.T) {
	snap, entries, err := Replay(t.TempDir())
	if err != nil || snap != nil || entries != nil {
		t.Fatalf("empty dir: snap=%v entries=%v err=%v", snap, entries, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, err := ParseSyncPolicy(""); err != nil || p != SyncAlways {
		t.Fatalf("empty policy: %v %v", p, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestConcurrentCommittersShareFsyncs pins the group commit: committers that
// Append and Sync concurrently, with nothing delaying the flush leader, all
// return durable — every entry is in the file, in append order, before any
// Close — and coalesce onto at most one fsync per append.
func TestConcurrentCommittersShareFsyncs(t *testing.T) {
	const committers = 32
	dir := t.TempDir()
	l, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		fsyncs int
		tokens = make(map[uint64]uint64) // entry epoch → append token
	)
	for g := 1; g <= committers; g++ {
		wg.Add(1)
		go func(epoch uint64) {
			defer wg.Done()
			tok, err := l.Append(entry(epoch, []float64{float64(epoch)}))
			if err != nil {
				t.Error(err)
				return
			}
			d, err := l.Sync(tok)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			tokens[epoch] = tok
			if d > 0 {
				fsyncs++
			}
			mu.Unlock()
		}(uint64(g))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if fsyncs < 1 || fsyncs > committers {
		t.Fatalf("%d fsyncs for %d appends, want between 1 and %d", fsyncs, committers, committers)
	}
	_, entries, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != committers {
		t.Fatalf("%d of %d synced entries are in the log", len(entries), committers)
	}
	for i, e := range entries {
		if tokens[e.Epoch] != uint64(i+1) {
			t.Fatalf("log position %d holds the entry appended with token %d", i+1, tokens[e.Epoch])
		}
	}
}
