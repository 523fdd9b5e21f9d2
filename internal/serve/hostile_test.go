package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/serve/wal"
)

// FuzzDecodeBody feeds hostile bytes to decodeBody as the body of each POST
// endpoint. decodeBody must never panic, and it may accept a body only when
// the body is exactly one JSON value (whitespace around it allowed) that
// decodes to what json.Unmarshal makes of it: trailing bytes after the value,
// a second value or garbage answer 400 like any other malformed body.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		`{"id":1} trailing garbage {`,
		`{"id":1}{"id":2}`,
		`{"id":1} }`,
		`{"id":1}` + "\n\t ",
		`{"sfc":[0,1],"expectation":0.95,"source":0,"destination":5}`,
		`{"sfc":[0,1],"expectation":0.95,"source":0,"destination":5,"primaries":[1,2],"deadline_ms":5,"tenant":"gold"} 7`,
		`{"node":2,"health":"down","note":"drill"}`,
		`{"node":2,"bogus":1}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, target := range []func() any{
			func() any { return new(AugmentRequest) },
			func() any { return new(ReleaseRequest) },
			func() any { return new(NodeEvent) },
		} {
			got := target()
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			if err := decodeBody(httptest.NewRecorder(), r, got); err != nil {
				continue
			}
			if !json.Valid(body) {
				t.Fatalf("%T: accepted %q, which is not one JSON value", got, body)
			}
			want := target()
			if err := json.Unmarshal(body, want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: accepted %q as %+v; json.Unmarshal gives %+v (%v)", got, body, got, want, err)
			}
		}
	})
}

// FuzzWALReplay writes hostile bytes as a WAL directory's log, and
// optionally its snapshot, and restores a state from it on a fixed network.
// The restore must end in a clean error or in a state whose epoch hash is
// the hash of its residual ledger, whose records are listed strictly
// ascending by ID and each found by Placement, and whose MaxPlacedID is at
// least every live ID and leaves room for the next admission's — never in a
// panic. The seeds are a real run's log, alone and behind its snapshot, and
// torn and bit-flipped copies of both, plus well-framed entries no writer
// produces and snapshots with a hostile max_id.
func FuzzWALReplay(f *testing.F) {
	// record runs a short stream of admissions, releases and a cloudlet
	// outage with the given snapshot cadence, and returns the directory's
	// log and snapshot (nil when none was taken).
	record := func(snapshotEvery int) (log, snap []byte) {
		dir := f.TempDir()
		svc, err := New(testNetwork(1000), Options{
			Workers: 1, Seed: 5, WALDir: dir, WALSync: "none", SnapshotEvery: snapshotEvery,
			AlertWarnFactor: 1e-9, AlertCritFactor: 1e-9,
		})
		if err != nil {
			f.Fatal(err)
		}
		runStream(f, svc, 12, 13, 4)
		for _, health := range []string{HealthDown, HealthUp} {
			if _, err := svc.ApplyHealth(2, health, "fuzz seed"); err != nil {
				f.Fatal(err)
			}
		}
		if err := svc.Close(); err != nil {
			f.Fatal(err)
		}
		if log, err = os.ReadFile(filepath.Join(dir, "wal.log")); err != nil {
			f.Fatal(err)
		}
		snap, _ = os.ReadFile(filepath.Join(dir, "snapshot.json"))
		return log, snap
	}
	flip := func(b []byte, at int) []byte {
		b = bytes.Clone(b)
		b[at] ^= 0x10
		return b
	}
	whole, _ := record(256)
	tail, snap := record(4)
	if len(whole) == 0 || len(snap) == 0 {
		f.Fatalf("seed run wrote a %d-byte log and a %d-byte snapshot", len(whole), len(snap))
	}
	f.Add(whole, []byte(nil), false)
	f.Add(tail, snap, true)
	f.Add(whole[:len(whole)-7], []byte(nil), false)
	f.Add(whole[:len(whole)/2], []byte(nil), false)
	f.Add(flip(whole, len(whole)/2), []byte(nil), false)
	f.Add(flip(whole, 3), []byte(nil), false)
	f.Add(tail, flip(snap, len(snap)/2), true)
	f.Add(tail, snap[:len(snap)-1], true)
	frame := func(entries ...string) []byte {
		var out []byte
		for _, e := range entries {
			out = append(out, wal.EncodeFrame([]byte(e))...)
		}
		return out
	}
	f.Add(frame(
		`{"epoch":1,"hash":"","residual":[1000,1000,1000,1000,1000],"admits":[{"id":-3}],"releases":[7,-1]}`,
		`{"epoch":2,"hash":"","residual":[1000,1000,1000,1000,1000],"health":{"node":99,"health":"bogus"},"down":[99,-1],"degraded":[100000]}`,
		`{"epoch":1,"hash":"zz","residual":[-1e308,0,0,0,0]}`,
	), []byte(`{"epoch":0,"residual":[1,2,3,4,5],"placed":[{"id":1},{"id":1}],"down":[-5]}`), true)
	f.Add(frame(`{"epoch":3,"residual":[1]}`), []byte(nil), false)
	for _, maxID := range []string{"-1", "9223372036854775807"} {
		f.Add(frame(`{"epoch":2,"hash":"","residual":[1000,1000,1000,1000,1000],"admits":[{"id":4}],"releases":[2]}`),
			[]byte(`{"epoch":1,"residual":[1000,1000,1000,1000,1000],"placed":[{"id":2}],"max_id":`+maxID+`}`), true)
	}

	f.Fuzz(func(t *testing.T, log, snap []byte, withSnap bool) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if withSnap {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := NewStateFromWAL(testNetwork(1000), dir)
		if err != nil {
			return
		}
		e := st.pin()
		if e.hash() != hashResiduals(e.res) {
			t.Fatalf("restored epoch %d hashes %016x, its ledger %016x", e.seq, e.hash(), hashResiduals(e.res))
		}
		ids := st.PlacementIDs()
		if st.PlacedCount() != len(ids) {
			t.Fatalf("restored state counts %d placements and lists %d", st.PlacedCount(), len(ids))
		}
		maxID := st.MaxPlacedID()
		if maxID == math.MaxInt {
			t.Fatalf("restored max placement ID %d: the next admission's ID wraps", maxID)
		}
		for i, id := range ids {
			if i > 0 && id <= ids[i-1] {
				t.Fatalf("restored IDs %v are not strictly ascending", ids)
			}
			if p, ok := st.Placement(id); !ok || p.ID != id {
				t.Fatalf("restored state lists ID %d; Placement finds %+v, %v", id, p, ok)
			}
			if id > maxID {
				t.Fatalf("restored max placement ID %d is below live ID %d", maxID, id)
			}
		}
		st.Snapshot()
		st.DownNodes()
		st.unmetRecords()
	})
}
