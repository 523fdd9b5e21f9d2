package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mec"
	"repro/internal/reliability"
	"repro/internal/workload"
)

// refNewInstance is NewInstance as it was before the item schedule moved to
// the catalog: Gains/Costs recomputed per position, BinSet from a seen-map
// and a scan over every AP. Kept verbatim as the parity reference.
func refNewInstance(net *mec.Network, req *mec.Request, p Params) *Instance {
	if len(req.Primaries) != req.Len() {
		panic(fmt.Sprintf("core: request %d has %d primaries for SFC length %d", req.ID, len(req.Primaries), req.Len()))
	}
	if p.L < 1 || p.L > net.G.N()-1 {
		panic(fmt.Sprintf("core: hop bound %d out of [1,%d]", p.L, net.G.N()-1))
	}
	inst := &Instance{
		Net:      net,
		Req:      req,
		Params:   p,
		Residual: net.ResidualSnapshot(),
		Budget:   reliability.Budget(req.Expectation),
	}
	binSeen := make(map[int]bool)
	initial := 1.0
	for i, ftID := range req.SFC {
		ft := net.Catalog().Type(ftID)
		initial *= ft.Reliability
		v := req.Primaries[i]
		pos := Position{
			Index:    i,
			Func:     ft,
			Primary:  v,
			PrimCost: -math.Log(ft.Reliability),
		}
		for _, u := range net.NeighborsWithinPlus(v, p.L) {
			if net.Capacity[u] <= 0 {
				continue
			}
			slots := int(math.Floor(inst.Residual[u] / ft.Demand))
			if slots <= 0 {
				continue
			}
			pos.Bins = append(pos.Bins, u)
			pos.Slots = append(pos.Slots, slots)
			binSeen[u] = true
		}
		totalSlots := 0
		for _, s := range pos.Slots {
			totalSlots += s
		}
		pos.K = totalSlots
		if cap := kCap(ft.Reliability, p.Uncapped); pos.K > cap {
			pos.K = cap
		}
		pos.Gains = make([]float64, pos.K)
		pos.Costs = make([]float64, pos.K)
		for k := 1; k <= pos.K; k++ {
			pos.Gains[k-1] = reliability.LogGain(ft.Reliability, k)
			pos.Costs[k-1] = reliability.ItemCost(ft.Reliability, k)
		}
		inst.Positions = append(inst.Positions, pos)
	}
	inst.InitialReliability = initial
	for u := 0; u < net.G.N(); u++ {
		if binSeen[u] {
			inst.BinSet = append(inst.BinSet, u)
		}
	}
	return inst
}

// canonEmpty returns a copy of inst in which every empty slice is nil: the
// builders differ in whether an empty Bins/Slots/Gains/Costs/BinSet is
// allocated, which no reader of an Instance can tell apart.
func canonEmpty(inst *Instance) *Instance {
	cp := *inst
	cp.Positions = append([]Position(nil), inst.Positions...)
	for i := range cp.Positions {
		p := &cp.Positions[i]
		p.Bins, p.Slots = nilIfEmpty(p.Bins), nilIfEmpty(p.Slots)
		p.Gains, p.Costs = nilIfEmpty(p.Gains), nilIfEmpty(p.Costs)
	}
	cp.BinSet = nilIfEmpty(cp.BinSet)
	return &cp
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkInstanceParity builds req on net with NewInstance and the reference
// and requires every field equal, the item schedules bit for bit.
func checkInstanceParity(t *testing.T, name string, net *mec.Network, req *mec.Request, p Params) *Instance {
	t.Helper()
	got, want := NewInstance(net, req, p), refNewInstance(net, req, p)
	for i := range want.Positions {
		g, w := got.Positions[i], want.Positions[i]
		if !sameBits(g.Gains, w.Gains) || !sameBits(g.Costs, w.Costs) {
			t.Fatalf("%s: position %d schedule differs from the reference (K %d vs %d)", name, i, g.K, w.K)
		}
		if cap(g.Gains) != g.K || cap(g.Costs) != g.K {
			t.Fatalf("%s: position %d schedule cap %d/%d exceeds K %d", name, i, cap(g.Gains), cap(g.Costs), g.K)
		}
	}
	if !reflect.DeepEqual(canonEmpty(got), canonEmpty(want)) {
		t.Fatalf("%s: instance differs from reference:\n got %+v\nwant %+v", name, got, want)
	}
	return got
}

func TestNewInstanceMatchesReference(t *testing.T) {
	// The serving benchmark's shapes (capacity scale, hop bound, chain
	// lengths), each on its network (residual 1.0, network seed 1): a stream
	// of requests, each admitted (primaries consumed where they fit) so later
	// requests see other residuals, capped and uncapped.
	for _, sh := range []struct {
		name                  string
		scale                 float64
		l, chainMin, chainMax int
	}{
		{"wire-default", 20, 1, 3, 6},
		{"wire-durable", 20, 1, 2, 3},
		{"wire-solver", 60, 2, 8, 12},
		{"inproc-waves", 64, 1, 3, 6},
	} {
		cfg := workload.NewDefaultConfig()
		cfg.HopBound = sh.l
		cfg.ResidualFraction = 1.0
		cfg.CapacityMin *= sh.scale
		cfg.CapacityMax *= sh.scale
		cfg.Expectation = 0.95
		net := cfg.Network(rand.New(rand.NewSource(1)))
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40; i++ {
			req := cfg.RequestWithLength(rng, i, sh.chainMin+rng.Intn(sh.chainMax-sh.chainMin+1), net.Catalog().Size())
			workload.PlacePrimariesRandom(net, req, rng)
			p := Params{L: sh.l, Uncapped: i%5 == 4}
			checkInstanceParity(t, fmt.Sprintf("%s/req%d", sh.name, i), net, req, p)
			for j, v := range req.Primaries {
				if d := net.Catalog().Type(req.SFC[j]).Demand; net.Residual(v) >= d {
					net.Consume(v, d)
				}
			}
		}
	}

	// Figure instances, sampled as the experiments harness samples them:
	// Fig. 1 lengths 2..20, Fig. 2 reliability intervals, Fig. 3 residual
	// fractions down to 1/16 (bins with no slot left).
	sample := func(name string, cfg workload.Config, seed int64, length int, uncapped bool) {
		rng := rand.New(rand.NewSource(seed))
		net := cfg.Network(rng)
		req := cfg.Request(rng, 0, net.Catalog().Size())
		if length > 0 {
			req = cfg.RequestWithLength(rng, 0, length, net.Catalog().Size())
		}
		workload.PlacePrimariesRandom(net, req, rng)
		checkInstanceParity(t, name, net, req, Params{L: cfg.HopBound, Uncapped: uncapped})
	}
	for length := 2; length <= 20; length += 2 {
		for trial := 0; trial < 3; trial++ {
			sample(fmt.Sprintf("fig1-len%d-trial%d", length, trial), workload.NewDefaultConfig(),
				42*1_000_003+int64(length)*10_007+int64(trial), length, trial == 2)
		}
	}
	for idx, iv := range []struct{ lo, hi float64 }{{0.55, 0.65}, {0.65, 0.75}, {0.75, 0.85}, {0.85, 0.95}} {
		cfg := workload.NewDefaultConfig()
		cfg.ReliabilityMin, cfg.ReliabilityMax = iv.lo, iv.hi
		for trial := 0; trial < 3; trial++ {
			sample(fmt.Sprintf("fig2-%d-trial%d", idx, trial), cfg, 42*1_000_003+int64(100+idx)*10_007+int64(trial), 0, trial == 2)
		}
	}
	for idx, f := range []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1} {
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = f
		for trial := 0; trial < 3; trial++ {
			sample(fmt.Sprintf("fig3-%d-trial%d", idx, trial), cfg, 42*1_000_003+int64(200+idx)*10_007+int64(trial), 0, trial == 2)
		}
	}

	// One catalog asked for a short schedule (6 slots), then a longer one (a
	// roomier network on the same catalog, capped at kCap(0.6) = 30): the
	// growth path runs, and the instance built before it still matches.
	small := buildNet([]float64{1000, 1000, 0}, []mec.FunctionType{{Name: "a", Demand: 300, Reliability: 0.6}})
	roomy := mec.NewNetwork(small.G, []float64{6000, 6000, 0}, small.Catalog())
	req := mec.NewRequest(1, []int{0}, 1.0, 0, 2)
	req.Primaries = []int{0}
	short := checkInstanceParity(t, "short", small, req, Params{L: 1})
	long := checkInstanceParity(t, "long", roomy, req, Params{L: 1})
	if short.Positions[0].K >= long.Positions[0].K {
		t.Fatalf("growth not exercised: K %d then %d", short.Positions[0].K, long.Positions[0].K)
	}
	ref := refNewInstance(small, req, Params{L: 1}).Positions[0]
	if !sameBits(short.Positions[0].Gains, ref.Gains) || !sameBits(short.Positions[0].Costs, ref.Costs) {
		t.Fatal("short schedule changed when the catalog grew")
	}
}

func TestItemScheduleSharedReadOnly(t *testing.T) {
	base := workload.NewDefaultConfig().Network(rand.New(rand.NewSource(5)))
	cat := base.Catalog()

	// 8 goroutines build instances on forks of one network at different
	// residual levels, hop bounds and caps, so the schedules they ask for
	// have mixed lengths and grow concurrently.
	const goroutines = 8
	built := make([][]*Instance, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			cfg := workload.NewDefaultConfig()
			res := base.ResidualSnapshot()
			for v := range res {
				res[v] *= float64(g+1) / goroutines
			}
			fork := base.Fork(res)
			for i := 0; i < 12; i++ {
				req := cfg.RequestWithLength(rng, i, 2+rng.Intn(7), cat.Size())
				workload.PlacePrimariesRandom(fork, req, rng)
				built[g] = append(built[g], NewInstance(fork, req, Params{L: 1 + i%2, Uncapped: g%4 == 3}))
			}
		}(g)
	}
	wg.Wait()

	// checkFresh compares every instance's schedules and the catalog's with
	// those of a fresh catalog over the same function types.
	types := make([]mec.FunctionType, cat.Size())
	for id := range types {
		types[id] = cat.Type(id)
	}
	checkFresh := func(when string) {
		t.Helper()
		fresh := mec.NewCatalog(types)
		for g, insts := range built {
			for k, inst := range insts {
				for i, p := range inst.Positions {
					gains, costs := fresh.ItemSchedule(p.Func.ID, p.K)
					if !sameBits(p.Gains, gains) || !sameBits(p.Costs, costs) {
						t.Fatalf("%s: goroutine %d instance %d position %d: schedule differs from a fresh one", when, g, k, i)
					}
				}
			}
		}
		for id := range types {
			gains, costs := cat.ItemSchedule(id, hardKCap)
			freshGains, freshCosts := fresh.ItemSchedule(id, hardKCap)
			if !sameBits(gains, freshGains) || !sameBits(costs, freshCosts) {
				t.Fatalf("%s: catalog schedule of type %d differs from a fresh one", when, id)
			}
		}
	}
	checkFresh("after concurrent builds")

	// Every registered solver reads the shared schedules; none may write
	// them. Mutation note: a solver that writes pos.Gains[0] (or any Costs
	// entry) fails the check below.
	for _, name := range Names() {
		sv, _ := Get(name)
		for g, insts := range built {
			for k, inst := range insts[:4] {
				if _, err := sv.Solve(inst, rand.New(rand.NewSource(int64(g*100+k)))); err != nil {
					t.Fatalf("%s on goroutine %d instance %d: %v", name, g, k, err)
				}
			}
		}
	}
	checkFresh("after every registered solver")
}
