package serve_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mec"
	"repro/internal/reliability"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/serve/wal"
	"repro/internal/workload"
)

// repairNetwork is the seed-6 network of the default workload, at full
// residual capacity. On it the stream of TestRepairInPlaceAcrossCombinations
// exercises every repair shape checkRepair tells apart.
func repairNetwork() *mec.Network {
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = 1.0
	return cfg.Network(rand.New(rand.NewSource(6)))
}

// repairTally counts the repair shapes a stream exercised.
type repairTally struct{ inPlace, promoted, dropped, newPrimary, whole int }

// checkRepair holds one repaired record against the failed record it
// replaced. The session keeps its ID. Its reliability is Π(1−(1−r_i)^{s_i+n_i})
// over its instances, and at least that of the survivors it kept. Every
// secondary is within l hops of its position's primary. Repaired in place,
// each position is anchored on its surviving primary, or else its lowest-ID
// surviving secondary, and keeps every other survivor within l hops of it;
// otherwise the whole chain was placed afresh, which a position without
// survivors allows.
func checkRepair(net *mec.Network, l int, failed, got wal.PlacedRecord, tally *repairTally) error {
	if got.ID != failed.ID || got.Failed {
		return fmt.Errorf("session %d: repaired as %d, failed=%v", failed.ID, got.ID, got.Failed)
	}
	total, kept := make([]int, len(got.SFC)), make([]int, len(got.SFC))
	rs := make([]float64, len(got.SFC))
	inPlace := true
	var shape repairTally
	for i, f := range got.SFC {
		rs[i] = net.Catalog().Type(f).Reliability
		total[i] = 1 + len(got.Secondaries[i])
		near := net.NeighborsWithinPlus(got.Primaries[i], l)
		for _, u := range got.Secondaries[i] {
			if !slices.Contains(near, u) {
				return fmt.Errorf("session %d position %d: secondary on %d beyond %d hops of primary %d", got.ID, i, u, l, got.Primaries[i])
			}
		}
		anchor, survivors := failed.Primaries[i], failed.Secondaries[i]
		if anchor < 0 && len(survivors) > 0 {
			anchor, survivors = survivors[0], survivors[1:]
			shape.promoted++
		}
		switch {
		case anchor < 0:
			shape.newPrimary++
			continue
		case got.Primaries[i] != anchor:
			inPlace = false
			continue
		}
		kept[i] = 1
		rest := slices.Clone(got.Secondaries[i])
		for _, u := range survivors {
			if !slices.Contains(near, u) {
				shape.dropped++
				continue
			}
			k := slices.Index(rest, u)
			if k < 0 {
				inPlace = false
				break
			}
			rest = slices.Delete(rest, k, k+1)
			kept[i]++
		}
	}
	if inPlace {
		shape.inPlace = 1
	} else {
		if shape.newPrimary == 0 {
			return fmt.Errorf("session %d: placed afresh though every position had a survivor", got.ID)
		}
		shape = repairTally{whole: 1}
		clear(kept)
	}
	tally.inPlace += shape.inPlace
	tally.promoted += shape.promoted
	tally.dropped += shape.dropped
	tally.newPrimary += shape.newPrimary
	tally.whole += shape.whole
	want := reliability.ChainSurvivorReliability(rs, total)
	if math.Abs(got.Reliability-want) > 1e-9*want {
		return fmt.Errorf("session %d: reliability %v, its instances %v give %v", got.ID, got.Reliability, total, want)
	}
	if floor := reliability.ChainSurvivorReliability(rs, kept); got.Reliability < floor {
		return fmt.Errorf("session %d: reliability %v below the %v of the survivors it kept", got.ID, got.Reliability, floor)
	}
	return nil
}

// TestRepairInPlaceAcrossCombinations admits a stream at every
// loadgen.Combinations entry, then fails three cloudlets in turn, each
// followed by repair rounds until none is pending. Every repaired record
// must pass checkRepair against the failed record it replaced, no session may
// change its ID, the ledger must hold what the records hold after every
// round, and the repairs must be the same at every combination.
func TestRepairInPlaceAcrossCombinations(t *testing.T) {
	var ref string
	var tally repairTally
	for _, c := range loadgen.Combinations {
		run := fmt.Sprintf("workers=%d batchers=%d", c.Workers, c.Batchers)
		net := repairNetwork()
		svc, err := serve.New(repairNetwork(), serve.Options{Workers: c.Workers, Batchers: c.Batchers, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loadgen.Run(svc, loadgen.Config{Seed: 4, Requests: 96, WaveSize: 32}); err != nil {
			t.Fatal(err)
		}
		st := svc.State()
		var log strings.Builder
		tally = repairTally{}
		for _, node := range []int{hostOf(t, st, 0), hostOf(t, st, 3), hostOf(t, st, 6)} {
			before := map[int]wal.PlacedRecord{}
			ids := st.PlacementIDs()
			nr, err := svc.ApplyHealth(node, serve.HealthDown, "test")
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if p, _ := st.Placement(id); p.Failed && !p.Met {
					before[id] = p
				}
			}
			fmt.Fprintf(&log, "down %d queued=%d\n", node, nr.ReaugQueued)
			for _, rep := range svc.SettleReaug() {
				fmt.Fprintf(&log, "round %+v\n", rep)
				if err := st.ConservationErr(); err != nil {
					t.Fatalf("%s: %v", run, err)
				}
			}
			if after := st.PlacementIDs(); slices.ContainsFunc(after, func(id int) bool { return !slices.Contains(ids, id) }) {
				t.Fatalf("%s: a repair issued a new ID: %v after, %v before", run, after, ids)
			}
			for _, id := range ids {
				failed, queued := before[id]
				got, live := st.Placement(id)
				if !queued || !live || got.Failed {
					continue
				}
				if err := checkRepair(net, 1, failed, got, &tally); err != nil {
					t.Fatalf("%s: %v", run, err)
				}
				fmt.Fprintf(&log, "repaired %d %v %v %x\n", id, got.Primaries, got.Secondaries, math.Float64bits(got.Reliability))
			}
		}
		svc.Drain()
		if ref == "" {
			ref = log.String()
		} else if log.String() != ref {
			t.Fatalf("%s: repairs differ from workers=%d batchers=%d:\n%s\nvs\n%s",
				run, loadgen.Combinations[0].Workers, loadgen.Combinations[0].Batchers, log.String(), ref)
		}
	}
	t.Logf("repairs: %+v", tally)
	if tally.inPlace == 0 || tally.promoted == 0 || tally.dropped == 0 || tally.newPrimary == 0 || tally.whole == 0 {
		t.Fatalf("the stream repaired %+v: it must repair in place, promote a secondary, drop a survivor, "+
			"place a lost primary and place a whole chain afresh", tally)
	}
}

// hostOf returns a cloudlet hosting the k-th live placement's first position
// that still has an instance: its primary, or else its first secondary.
func hostOf(t *testing.T, st *serve.State, k int) int {
	t.Helper()
	ids := st.PlacementIDs()
	p, _ := st.Placement(ids[k%len(ids)])
	for i, v := range p.Primaries {
		if v >= 0 {
			return v
		}
		if len(p.Secondaries[i]) > 0 {
			return p.Secondaries[i][0]
		}
	}
	t.Fatalf("placement %d has no live instance", p.ID)
	return -1
}
