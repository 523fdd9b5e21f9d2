// Failover: validates the paper's reliability model against a Monte-Carlo
// failure simulator and explores what the model cannot see — correlated
// cloudlet outages. A batch of requests is admitted and augmented in arrival
// order, each placement is stress-tested with 200k sampled failure scenarios
// (internal/failsim), and the empirical availability is compared with the
// analytical Π R_i the algorithms optimize.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/failsim"
	"repro/internal/mec"
	"repro/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(31))
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = 1.0
	cfg.Expectation = 0.999

	net := cfg.Network(rng)
	var reqs []*mec.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, cfg.Request(rng, i, net.Catalog().Size()))
	}

	ilp, ok := core.Get("ILP")
	if !ok {
		log.Fatal("ILP solver not registered")
	}
	// Place primaries, solve, commit — one request after another on the
	// shared ledger. failsim needs the solver's *core.Result, so this runs
	// the paper's per-request pipeline directly instead of a serving stack.
	var placed []*core.Result
	for _, req := range reqs {
		var res *core.Result
		err := admission.PlaceRandom(net, req, rng)
		if err == nil {
			res, err = ilp.Solve(core.NewInstance(net, req, core.Params{L: 1}), rng)
		}
		if err == nil {
			err = res.Commit(net)
		}
		if err != nil {
			fmt.Printf("request %d rejected: %v\n", req.ID, err)
			continue
		}
		placed = append(placed, res)
	}

	fmt.Printf("%-4s %-5s %-12s %-12s %-11s %s\n",
		"req", "SFC", "analytical", "empirical", "Δ(σ units)", "weakest function")
	for _, res := range placed {
		req := res.Instance.Req
		out, err := failsim.Simulate(res, 200000, rng)
		if err != nil {
			fmt.Printf("%-4d simulation failed: %v\n", req.ID, err)
			continue
		}
		sigma := math.Sqrt(out.Analytical*(1-out.Analytical)/float64(out.Trials)) + 1e-12
		weak, count := out.WeakestLink()
		weakName := "none (chain never failed)"
		if weak >= 0 {
			weakName = fmt.Sprintf("position %d (%d failures)", weak, count)
		}
		fmt.Printf("%-4d %-5d %-12.5f %-12.5f %-11.2f %s\n",
			req.ID, req.Len(), out.Analytical, out.Availability,
			(out.Availability-out.Analytical)/sigma, weakName)
	}

	// Blast radius of correlated cloudlet failures for the first placement —
	// the independence assumption's blind spot.
	if len(placed) > 0 {
		res := placed[0]
		fmt.Printf("\nblast radius for request %d (baseline availability %.5f):\n",
			res.Instance.Req.ID, res.Reliability)
		outage, err := failsim.CloudletOutage(res, 50000, rng)
		if err != nil {
			log.Fatal(err)
		}
		var cls []int
		for u := range outage {
			cls = append(cls, u)
		}
		sort.Ints(cls)
		for _, u := range cls {
			fmt.Printf("  cloudlet %3d dark → availability %.5f\n", u, outage[u])
		}
	}
	fmt.Println("\nΔ within a few σ confirms Eq. (1); the blast-radius table shows which")
	fmt.Println("cloudlet a placement actually depends on despite meeting ρ on paper.")
}
