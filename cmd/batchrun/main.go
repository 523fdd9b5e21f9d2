// Command batchrun admits and augments a stream of requests against one MEC
// network, comparing ordering policies and solvers — the operator-facing
// batch mode. Each policy (arrival order, neediest first, shortest first)
// orders the same sampled stream and submits it, one request at a time, to a
// fresh in-process serving stack (internal/serve, the code augmentd runs).
// The solver is any name registered in internal/core's solver registry
// (ILP, Randomized, Heuristic, Greedy, plus extensions).
//
//	go run ./cmd/batchrun -n 40 -rho 0.995 -policy all -solver heuristic
//
// -seed fixes the sampled network and request stream, -residual its initial
// residual-capacity fraction, and -l the secondary placement hop bound.
// Shared observability flags: -obs-addr serves /metrics and pprof,
// -log-level sets the structured log level, and -run-manifest writes a JSON
// run manifest.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// policyNames lists the ordering policies in the order -policy all runs them.
var policyNames = []string{"arrival", "neediest", "shortest"}

// world is everything that shapes a policy run besides the order: every
// policy sees an identical fresh network and stream (same seed), so the rows
// compare apples to apples.
type world struct {
	seed     int64
	n        int
	rho      float64
	residual float64
	l        int
	solver   core.Solver
}

// summary is one policy run's table row.
type summary struct {
	admitted int
	// met counts admitted requests whose reliability reached ρ.
	met int
	// meanReliability averages over admitted requests.
	meanReliability float64
	// residualLeft is the total residual capacity remaining (MHz).
	residualLeft float64
}

// runPolicy samples the world, orders its requests by policy, and submits
// them in that order, one at a time, to a fresh service.
func runPolicy(policy string, w world) (summary, error) {
	rng := rand.New(rand.NewSource(w.seed))
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = w.residual
	cfg.Expectation = w.rho
	net := cfg.Network(rng)
	reqs := make([]*mec.Request, w.n)
	for i := range reqs {
		reqs[i] = cfg.Request(rng, i, net.Catalog().Size())
	}
	switch policy {
	case "arrival":
		// First come, first augmented.
	case "neediest":
		// The largest reliability deficit first, spending contended capacity
		// where it is most needed.
		sort.SliceStable(reqs, func(a, b int) bool { return deficit(net, reqs[a]) > deficit(net, reqs[b]) })
	case "shortest":
		// Short chains need the fewest backups to meet an expectation, which
		// maximizes the count of satisfied requests under scarcity.
		sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Len() < reqs[b].Len() })
	default:
		return summary{}, fmt.Errorf("unknown policy %q (want %s)", policy, strings.Join(policyNames, ", "))
	}

	svc, err := serve.New(net, serve.Options{
		Solver:    w.solver,
		HopBound:  w.l,
		Seed:      w.seed,
		BatchSize: 1,
		Workers:   1,
		// Nobody reads this service's flight recorder, and a request admitted
		// below ρ is a table column here, not an operator's alert.
		TraceDepth:      -1,
		AlertWarnFactor: 1e-9,
		AlertCritFactor: 1e-9,
	})
	if err != nil {
		return summary{}, err
	}
	defer svc.Drain()

	var sum summary
	for _, req := range reqs {
		t, err := svc.Enqueue(serve.AugmentRequest{
			SFC:         req.SFC,
			Expectation: req.Expectation,
			Source:      req.Source,
			Destination: req.Destination,
		})
		if err != nil {
			return summary{}, fmt.Errorf("request %d: %w", req.ID, err)
		}
		out := t.Wait()
		if out.Status != http.StatusOK {
			continue // rejected: no capacity, or no usable solution
		}
		sum.admitted++
		sum.meanReliability += out.Response.Reliability
		if out.Response.MetExpectation {
			sum.met++
		}
	}
	if sum.admitted > 0 {
		sum.meanReliability /= float64(sum.admitted)
	}
	cloudlets, _, _ := svc.State().Snapshot()
	for _, c := range cloudlets {
		sum.residualLeft += c.Residual
	}
	return sum, nil
}

// deficit is ρ − Π r_i, the reliability gap the request needs to close.
func deficit(net *mec.Network, req *mec.Request) float64 {
	u := 1.0
	for _, f := range req.SFC {
		u *= net.Catalog().Type(f).Reliability
	}
	return req.Expectation - u
}

func main() {
	n := flag.Int("n", 40, "number of requests in the batch")
	rho := flag.Float64("rho", 0.995, "reliability expectation per request")
	seed := flag.Int64("seed", 1, "RNG seed")
	residual := flag.Float64("residual", 0.5, "initial residual capacity fraction")
	l := flag.Int("l", 1, "hop bound for secondary placement")
	solver := flag.String("solver", "heuristic", "registered solver name: "+strings.Join(core.Names(), ", "))
	policy := flag.String("policy", "all", "arrival, neediest, shortest, all")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /debug/vars, /debug/pprof/ on this address (e.g. :9090 or :0; empty: off)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	manifestPath := flag.String("run-manifest", "", "write a JSON run manifest to this path")
	flag.Parse()

	srv, err := obs.Boot(*logLevel, *obsAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if srv != nil {
		defer srv.Close()
	}

	sv, ok := core.Get(*solver)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -solver %q (registered: %s)\n", *solver, strings.Join(core.Names(), ", "))
		os.Exit(2)
	}
	runPolicies := policyNames
	if p := strings.ToLower(*policy); p != "all" {
		known := false
		for _, name := range policyNames {
			known = known || name == p
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown -policy %q\n", *policy)
			os.Exit(2)
		}
		runPolicies = []string{p}
	}

	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("batchrun")
		manifest.Seed = *seed
		manifest.Solvers = []string{sv.Name()}
	}

	w := world{seed: *seed, n: *n, rho: *rho, residual: *residual, l: *l, solver: sv}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tadmitted\tmet ρ\tmet rate\tmean reliability\tresidual left (MHz)")
	for _, pname := range runPolicies {
		sum, err := runPolicy(pname, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batchrun: %s: %v\n", pname, err)
			os.Exit(1)
		}
		metRate := 0.0
		if sum.admitted > 0 {
			metRate = float64(sum.met) / float64(sum.admitted)
		}
		fmt.Fprintf(tw, "%s\t%d/%d\t%d\t%.2f\t%.4f\t%.0f\n",
			pname, sum.admitted, *n, sum.met, metRate, sum.meanReliability, sum.residualLeft)
		manifest.Add(obs.RunRecord{
			Name: "batch", Policy: pname, Solver: sv.Name(), Seed: *seed,
			Trials: *n, Outcome: "ok",
			Detail: fmt.Sprintf("admitted=%d met=%d mean_reliability=%.4f", sum.admitted, sum.met, sum.meanReliability),
		})
	}
	tw.Flush()
	if manifest != nil {
		if err := manifest.WriteFile(*manifestPath, obs.Default()); err != nil {
			fmt.Fprintf(os.Stderr, "run-manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *manifestPath)
	}
}
