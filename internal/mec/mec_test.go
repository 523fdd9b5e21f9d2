package mec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/reliability"
)

func testCatalog() *Catalog {
	return NewCatalog([]FunctionType{
		{Name: "fw", Demand: 200, Reliability: 0.8},
		{Name: "nat", Demand: 300, Reliability: 0.9},
		{Name: "ids", Demand: 400, Reliability: 0.85},
	})
}

func lineNetwork(caps []float64) *Network {
	g := graph.New(len(caps))
	for i := 0; i+1 < len(caps); i++ {
		g.AddEdge(i, i+1)
	}
	return NewNetwork(g, caps, testCatalog())
}

func TestCatalogBasics(t *testing.T) {
	c := testCatalog()
	if c.Size() != 3 {
		t.Fatalf("size %d", c.Size())
	}
	if c.Type(1).Name != "nat" || c.Type(1).ID != 1 {
		t.Fatalf("type 1 = %+v", c.Type(1))
	}
}

// TestItemScheduleSharedReadOnly pins the catalog's item schedule: entries
// bit-equal to LogGain/ItemCost, slices capped at their length, and a slice
// handed out before a growth untouched by it. The concurrency and
// solvers-never-write halves live in core's test of the same name.
func TestItemScheduleSharedReadOnly(t *testing.T) {
	c := NewCatalog([]FunctionType{
		{Demand: 200, Reliability: 0.8},
		{Demand: 300, Reliability: 0.55},
		{Demand: 400, Reliability: 1},
	})
	check := func(id int, gains, costs []float64) {
		t.Helper()
		r := c.Type(id).Reliability
		for j := range gains {
			if math.Float64bits(gains[j]) != math.Float64bits(reliability.LogGain(r, j+1)) ||
				math.Float64bits(costs[j]) != math.Float64bits(reliability.ItemCost(r, j+1)) {
				t.Fatalf("type %d item %d: got %v/%v", id, j+1, gains[j], costs[j])
			}
		}
	}
	for id := 0; id < c.Size(); id++ {
		// Ascending lengths up to 64, then one uncapped length (the paper's
		// literal K_i, far past the cap), then short again.
		for _, k := range []int{0, 1, 5, 3, 30, 64, 1000, 2} {
			gains, costs := c.ItemSchedule(id, k)
			if len(gains) != k || cap(gains) != k || len(costs) != k || cap(costs) != k {
				t.Fatalf("type %d k=%d: len/cap %d/%d and %d/%d", id, k, len(gains), cap(gains), len(costs), cap(costs))
			}
			check(id, gains, costs)
		}
	}

	// A slice handed out before a growth is unchanged after it, and no
	// append to it reaches the shared array.
	gains, costs := c.ItemSchedule(0, 4)
	before := append([]float64(nil), gains...)
	c.ItemSchedule(0, 2000)
	_ = append(gains, -1)
	check(0, gains, costs)
	for j := range gains {
		if math.Float64bits(gains[j]) != math.Float64bits(before[j]) {
			t.Fatalf("item %d changed across growth", j+1)
		}
	}
	if g, _ := c.ItemSchedule(0, 5); g[4] == -1 {
		t.Fatal("an append to a handed-out slice reached the schedule")
	}
}

func TestCatalogAutoNames(t *testing.T) {
	c := NewCatalog([]FunctionType{{Demand: 100, Reliability: 0.5}})
	if c.Type(0).Name != "f0" {
		t.Fatalf("auto name %q", c.Type(0).Name)
	}
}

func TestCatalogValidation(t *testing.T) {
	for _, bad := range []FunctionType{
		{Demand: 0, Reliability: 0.5},
		{Demand: -1, Reliability: 0.5},
		{Demand: 100, Reliability: 0},
		{Demand: 100, Reliability: 1.2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("catalog entry %+v should panic", bad)
				}
			}()
			NewCatalog([]FunctionType{bad})
		}()
	}
}

func TestCatalogTypeOutOfRangePanics(t *testing.T) {
	c := testCatalog()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Type(9)
}

func TestCloudlets(t *testing.T) {
	n := lineNetwork([]float64{0, 4000, 0, 6000})
	cl := n.Cloudlets()
	if len(cl) != 2 || cl[0] != 1 || cl[1] != 3 {
		t.Fatalf("cloudlets %v", cl)
	}
}

func TestResidualLedger(t *testing.T) {
	n := lineNetwork([]float64{0, 4000})
	if n.Residual(1) != 4000 {
		t.Fatalf("initial residual %v", n.Residual(1))
	}
	n.Consume(1, 1500)
	if n.Residual(1) != 2500 {
		t.Fatalf("after consume %v", n.Residual(1))
	}
	n.Release(1, 500)
	if n.Residual(1) != 3000 {
		t.Fatalf("after release %v", n.Residual(1))
	}
	n.Release(1, 99999) // capped at capacity
	if n.Residual(1) != 4000 {
		t.Fatalf("release should cap at capacity: %v", n.Residual(1))
	}
}

func TestConsumeOverdraftPanics(t *testing.T) {
	n := lineNetwork([]float64{1000})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Consume(0, 1001)
}

func TestSetResidualFraction(t *testing.T) {
	n := lineNetwork([]float64{4000, 8000})
	n.SetResidualFraction(0.25)
	if n.Residual(0) != 1000 || n.Residual(1) != 2000 {
		t.Fatalf("residuals %v %v", n.Residual(0), n.Residual(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("fraction > 1 should panic")
		}
	}()
	n.SetResidualFraction(1.5)
}

func TestSnapshotRestore(t *testing.T) {
	n := lineNetwork([]float64{4000, 8000})
	snap := n.ResidualSnapshot()
	n.Consume(0, 4000)
	n.Consume(1, 1234)
	n.RestoreResiduals(snap)
	if n.Residual(0) != 4000 || n.Residual(1) != 8000 {
		t.Fatal("restore failed")
	}
	// snapshot must be a copy, not an alias
	snap[0] = -1
	if n.Residual(0) != 4000 {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	g := graph.New(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch should panic")
			}
		}()
		NewNetwork(g, []float64{1}, testCatalog())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative capacity should panic")
			}
		}()
		NewNetwork(g, []float64{-5, 0}, testCatalog())
	}()
}

func TestRequestAccessors(t *testing.T) {
	r := NewRequest(7, []int{0, 2, 1}, 0.95, 0, 3)
	if r.Len() != 3 {
		t.Fatalf("len %d", r.Len())
	}
	c := testCatalog()
	ds := r.Demands(c)
	if ds[0] != 200 || ds[1] != 400 || ds[2] != 300 {
		t.Fatalf("demands %v", ds)
	}
}

func TestRequestValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty SFC should panic")
			}
		}()
		NewRequest(0, nil, 0.9, 0, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad expectation should panic")
			}
		}()
		NewRequest(0, []int{0}, 0, 0, 0)
	}()
}

func TestPlacementValidate(t *testing.T) {
	// line 0-1-2-3, cloudlets at 1 and 3 (2 hops apart).
	n := lineNetwork([]float64{0, 4000, 0, 6000})
	req := NewRequest(1, []int{0, 1}, 0.9, 0, 3)
	req.Primaries = []int{1, 3}

	ok := &Placement{Request: req, Secondaries: [][]int{{1}, {3, 3}}}
	if err := ok.Validate(n, 1); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}

	// secondary at 3 for primary at 1 violates l=1 (distance 2)...
	farWithL1 := &Placement{Request: req, Secondaries: [][]int{{3}, nil}}
	if err := farWithL1.Validate(n, 1); err == nil || !strings.Contains(err.Error(), "hop") {
		t.Fatalf("expected hop violation, got %v", err)
	}
	// ...but is fine with l=2.
	if err := farWithL1.Validate(n, 2); err != nil {
		t.Fatalf("l=2 should allow distance-2 placement: %v", err)
	}

	// secondary on a non-cloudlet AP
	bad := &Placement{Request: req, Secondaries: [][]int{{0}, nil}}
	if err := bad.Validate(n, 1); err == nil || !strings.Contains(err.Error(), "non-cloudlet") {
		t.Fatalf("expected non-cloudlet error, got %v", err)
	}

	// missing primaries
	req2 := NewRequest(2, []int{0}, 0.9, 0, 3)
	incomplete := &Placement{Request: req2, Secondaries: [][]int{nil}}
	if err := incomplete.Validate(n, 1); err == nil {
		t.Fatal("placement without primaries should fail")
	}

	// wrong secondary list length
	req3 := NewRequest(3, []int{0, 1}, 0.9, 0, 3)
	req3.Primaries = []int{1, 3}
	shortLists := &Placement{Request: req3, Secondaries: [][]int{nil}}
	if err := shortLists.Validate(n, 1); err == nil {
		t.Fatal("wrong secondary list count should fail")
	}
}

func TestBackupCounts(t *testing.T) {
	p := &Placement{Secondaries: [][]int{{1, 1, 3}, nil, {5}}}
	ks := p.BackupCounts()
	if ks[0] != 3 || ks[1] != 0 || ks[2] != 1 {
		t.Fatalf("counts %v", ks)
	}
}

func TestForkIsolatesResiduals(t *testing.T) {
	n := lineNetwork([]float64{1000, 1000, 0, 1000})
	n.Consume(0, 100)

	fork := n.Fork(n.ResidualSnapshot())
	if fork.Residual(0) != 900 {
		t.Fatalf("fork residual %v, want 900", fork.Residual(0))
	}
	// Mutating the fork never touches the base, and vice versa.
	fork.Consume(1, 250)
	if n.Residual(1) != 1000 {
		t.Fatalf("base residual changed by fork mutation: %v", n.Residual(1))
	}
	n.Consume(3, 500)
	if fork.Residual(3) != 1000 {
		t.Fatalf("fork residual changed by base mutation: %v", fork.Residual(3))
	}
	// Topology, catalog, and the neighborhood memo are shared: both views
	// return the one canonical neighborhood slice.
	a := n.NeighborsWithinPlus(1, 1)
	b := fork.NeighborsWithinPlus(1, 1)
	if len(a) != len(b) || &a[0] != &b[0] {
		t.Fatalf("fork does not share the neighborhood memo: %p vs %p", a, b)
	}
	if fork.NumNodes() != n.NumNodes() {
		t.Fatalf("fork node count %d != %d", fork.NumNodes(), n.NumNodes())
	}
}

func TestForkLengthMismatchPanics(t *testing.T) {
	n := lineNetwork([]float64{1000, 1000})
	defer func() {
		if recover() == nil {
			t.Fatal("Fork with wrong residual length did not panic")
		}
	}()
	n.Fork([]float64{1})
}

func TestResidualViewInterface(t *testing.T) {
	var v ResidualView = lineNetwork([]float64{10, 0})
	if v.NumNodes() != 2 || v.Residual(0) != 10 {
		t.Fatalf("ResidualView over Network: nodes=%d res0=%v", v.NumNodes(), v.Residual(0))
	}
}
