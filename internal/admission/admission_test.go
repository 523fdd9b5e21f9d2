package admission

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mec"
)

func testCatalog() *mec.Catalog {
	return mec.NewCatalog([]mec.FunctionType{
		{Name: "fw", Demand: 200, Reliability: 0.8},
		{Name: "nat", Demand: 300, Reliability: 0.9},
		{Name: "ids", Demand: 400, Reliability: 0.85},
	})
}

// line 0-1-2-3-4 with cloudlets at 1 and 3.
func lineNet(c1, c3 float64) *mec.Network {
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	return mec.NewNetwork(g, []float64{0, c1, 0, c3, 0}, testCatalog())
}

func TestPlaceRandomBasic(t *testing.T) {
	net := lineNet(4000, 4000)
	req := mec.NewRequest(1, []int{0, 1, 2}, 0.99, 0, 4)
	rng := rand.New(rand.NewSource(1))
	if err := PlaceRandom(net, req, rng); err != nil {
		t.Fatal(err)
	}
	if len(req.Primaries) != 3 {
		t.Fatalf("primaries %v", req.Primaries)
	}
	totalDemand := 200.0 + 300 + 400
	if got := (4000 - net.Residual(1)) + (4000 - net.Residual(3)); math.Abs(got-totalDemand) > 1e-9 {
		t.Fatalf("consumed %v, want %v", got, totalDemand)
	}
	for _, v := range req.Primaries {
		if v != 1 && v != 3 {
			t.Fatalf("primary on non-cloudlet %d", v)
		}
	}
}

func TestPlaceRandomRespectsCapacity(t *testing.T) {
	// only cloudlet 1 can host (cloudlet 3 too small for any function)
	net := lineNet(4000, 100)
	req := mec.NewRequest(1, []int{0, 0}, 0.99, 0, 4)
	rng := rand.New(rand.NewSource(2))
	if err := PlaceRandom(net, req, rng); err != nil {
		t.Fatal(err)
	}
	for _, v := range req.Primaries {
		if v != 1 {
			t.Fatalf("primary should only fit on cloudlet 1, got %v", req.Primaries)
		}
	}
}

func TestPlaceRandomFailureRollsBack(t *testing.T) {
	net := lineNet(450, 0) // fits fw(200) then nothing for ids(400)
	req := mec.NewRequest(1, []int{0, 2}, 0.99, 0, 4)
	rng := rand.New(rand.NewSource(3))
	err := PlaceRandom(net, req, rng)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err=%v, want ErrNoCapacity", err)
	}
	if net.Residual(1) != 450 {
		t.Fatalf("ledger not rolled back: %v", net.Residual(1))
	}
	if req.Primaries != nil {
		t.Fatal("primaries set despite failure")
	}
}

func TestPlaceMaxReliabilityBasic(t *testing.T) {
	net := lineNet(4000, 4000)
	req := mec.NewRequest(1, []int{0, 1}, 0.99, 0, 4)
	if err := PlaceMaxReliability(net, req); err != nil {
		t.Fatal(err)
	}
	if len(req.Primaries) != 2 {
		t.Fatalf("primaries %v", req.Primaries)
	}
	consumed := (4000 - net.Residual(1)) + (4000 - net.Residual(3))
	if math.Abs(consumed-500) > 1e-9 {
		t.Fatalf("consumed %v, want 500", consumed)
	}
}

func TestPlaceMaxReliabilitySplitsWhenCapacityTight(t *testing.T) {
	// Each cloudlet can hold exactly one fw instance; a 2-fw chain must split.
	net := lineNet(250, 250)
	req := mec.NewRequest(1, []int{0, 0}, 0.99, 0, 4)
	if err := PlaceMaxReliability(net, req); err != nil {
		t.Fatal(err)
	}
	if req.Primaries[0] == req.Primaries[1] {
		t.Fatalf("both primaries on one cloudlet despite capacity: %v", req.Primaries)
	}
}

func TestPlaceMaxReliabilityInfeasible(t *testing.T) {
	net := lineNet(100, 100)
	req := mec.NewRequest(1, []int{0}, 0.99, 0, 4)
	err := PlaceMaxReliability(net, req)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err=%v, want ErrNoCapacity", err)
	}
	if net.Residual(1) != 100 || net.Residual(3) != 100 {
		t.Fatal("ledger changed on failure")
	}
}

func TestPlaceMaxReliabilityNoCloudlets(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	net := mec.NewNetwork(g, []float64{0, 0, 0}, testCatalog())
	req := mec.NewRequest(1, []int{0}, 0.99, 0, 2)
	if err := PlaceMaxReliability(net, req); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err=%v, want ErrNoCapacity", err)
	}
}

func TestPlaceMaxReliabilityPrefersCompactChains(t *testing.T) {
	// Two cloudlets far apart; with ample capacity the hop penalty should
	// keep consecutive functions co-located (all reliabilities identical, so
	// only locality breaks ties).
	net := lineNet(8000, 8000)
	req := mec.NewRequest(1, []int{0, 0, 0}, 0.99, 0, 0) // src=dst=0, near cloudlet 1
	if err := PlaceMaxReliability(net, req); err != nil {
		t.Fatal(err)
	}
	for _, v := range req.Primaries {
		if v != 1 {
			t.Fatalf("expected all primaries near source on cloudlet 1, got %v", req.Primaries)
		}
	}
}

func TestInitialReliability(t *testing.T) {
	net := lineNet(4000, 4000)
	req := mec.NewRequest(1, []int{0, 1}, 0.99, 0, 4)
	want := 0.8 * 0.9
	if got := InitialReliability(net, req); math.Abs(got-want) > 1e-12 {
		t.Fatalf("initial reliability %v, want %v", got, want)
	}
}

func TestPlaceRandomManySeedsAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		net := lineNet(4000, 8000)
		req := mec.NewRequest(1, []int{0, 1, 2, 0}, 0.99, 0, 4)
		rng := rand.New(rand.NewSource(seed))
		if err := PlaceRandom(net, req, rng); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := &mec.Placement{Request: req, Secondaries: make([][]int, req.Len())}
		if err := p.Validate(net, 1); err != nil {
			t.Fatalf("seed %d: invalid placement: %v", seed, err)
		}
	}
}

// refPlaceRandom is PlaceRandom as it was before it stopped copying the
// ledger, kept verbatim as the parity reference: it snapshots every residual
// up front, lists the cloudlets afresh for each position and restores the
// whole snapshot on failure.
func refPlaceRandom(net *mec.Network, req *mec.Request, rng *rand.Rand) error {
	snap := net.ResidualSnapshot()
	primaries := make([]int, 0, req.Len())
	for _, ftID := range req.SFC {
		demand := net.Catalog().Type(ftID).Demand
		var candidates []int
		for _, v := range net.Cloudlets() {
			if net.Residual(v) >= demand {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			net.RestoreResiduals(snap)
			return fmt.Errorf("%w (function type %d, demand %v)", ErrNoCapacity, ftID, demand)
		}
		v := candidates[rng.Intn(len(candidates))]
		net.Consume(v, demand)
		primaries = append(primaries, v)
	}
	req.Primaries = primaries
	return nil
}

// TestPlaceRandomMatchesReference runs PlaceRandom and the snapshot
// reference on twin ledgers over random networks and chains: few, partly
// used cloudlets with irregular demands, so chains pick cloudlets
// repeatedly, often fail partway, and run past the 16 positions whose
// before-values PlaceRandom keeps off the heap. Both must agree on the
// primaries, the error, every residual's bits and the RNG's next draw.
func TestPlaceRandomMatchesReference(t *testing.T) {
	cat := mec.NewCatalog([]mec.FunctionType{
		{Name: "a", Demand: 123.7, Reliability: 0.9},
		{Name: "b", Demand: 250.3, Reliability: 0.9},
		{Name: "c", Demand: 77.1, Reliability: 0.9},
		{Name: "d", Demand: 410.9, Reliability: 0.9},
	})
	gen := rand.New(rand.NewSource(55))
	failedPartway, repeated, long := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		n := 2 + gen.Intn(10)
		g := graph.New(n)
		for v := 0; v+1 < n; v++ {
			g.AddEdge(v, v+1)
		}
		capacity := make([]float64, n)
		for v := range capacity {
			if gen.Intn(3) > 0 {
				capacity[v] = 1000 * gen.Float64() * float64(1+gen.Intn(4))
			}
		}
		want := mec.NewNetwork(g, capacity, cat)
		for v, c := range capacity {
			if c > 0 && gen.Intn(2) == 0 {
				want.Consume(v, c*gen.Float64())
			}
		}
		got := want.Fork(want.ResidualSnapshot())
		sfc := make([]int, 1+gen.Intn(24))
		for i := range sfc {
			sfc[i] = gen.Intn(cat.Size())
		}
		seed := gen.Int63()
		wantReq := mec.NewRequest(trial, sfc, 0.99, 0, n-1)
		gotReq := mec.NewRequest(trial, sfc, 0.99, 0, n-1)
		wantRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		wantErr := refPlaceRandom(want, wantReq, wantRng)
		gotErr := PlaceRandom(got, gotReq, gotRng)

		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || errors.Is(gotErr, ErrNoCapacity) != errors.Is(wantErr, ErrNoCapacity) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
		}
		if !slices.Equal(gotReq.Primaries, wantReq.Primaries) {
			t.Fatalf("trial %d: primaries %v, reference %v", trial, gotReq.Primaries, wantReq.Primaries)
		}
		for v := 0; v < n; v++ {
			if a, b := got.Residual(v), want.Residual(v); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d: node %d residual %v, reference %v", trial, v, a, b)
			}
		}
		if a, b := gotRng.Int63(), wantRng.Int63(); a != b {
			t.Fatalf("trial %d: next draw %d, reference %d", trial, a, b)
		}
		if wantErr != nil && slices.ContainsFunc(want.Cloudlets(), func(v int) bool {
			return want.Residual(v) >= cat.Type(sfc[0]).Demand
		}) {
			failedPartway++ // the first primary fit, so the failure rolled back a placement
		}
		if wantErr == nil && len(sfc) > 16 {
			long++
		}
		if distinct := slices.Clone(wantReq.Primaries); wantErr == nil {
			slices.Sort(distinct)
			if len(slices.Compact(distinct)) < len(wantReq.Primaries) {
				repeated++
			}
		}
	}
	if failedPartway < 50 || repeated < 50 || long < 50 {
		t.Fatalf("coverage: %d failures after a placed primary, %d placements with a repeated cloudlet, %d of more than 16 positions; want 50 of each",
			failedPartway, repeated, long)
	}
}
