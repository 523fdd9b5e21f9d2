// Command batchrun admits and augments a stream of requests against one MEC
// network, comparing ordering policies and solvers — the operator-facing
// batch mode built on internal/batch. The solver is any name registered in
// internal/core's solver registry (ILP, Randomized, Heuristic, Greedy, plus
// extensions); policy comparisons run in parallel on the deterministic trial
// engine, so -workers changes wall-clock only, never the table.
//
//	go run ./cmd/batchrun -n 40 -rho 0.995 -policy all -solver heuristic
//	go run ./cmd/batchrun -policy all -fail-soft   # a failing policy run becomes a failed row
//
// -seed fixes the sampled network and request stream, -residual its initial
// residual-capacity fraction, and -l the secondary placement hop bound.
// Shared observability flags: -obs-addr serves /metrics and pprof,
// -log-level sets the structured log level, and -run-manifest writes a JSON
// run manifest.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 40, "number of requests in the batch")
	rho := flag.Float64("rho", 0.995, "reliability expectation per request")
	seed := flag.Int64("seed", 1, "RNG seed")
	residual := flag.Float64("residual", 0.5, "initial residual capacity fraction")
	l := flag.Int("l", 1, "hop bound for secondary placement")
	solver := flag.String("solver", "heuristic", "registered solver name: "+strings.Join(core.Names(), ", "))
	policy := flag.String("policy", "all", "arrival, neediest, shortest, all")
	workers := flag.Int("workers", 0, "parallel policy-run workers (<=0: GOMAXPROCS)")
	failSoft := flag.Bool("fail-soft", false, "report a failed policy run as a failed row instead of aborting the comparison")
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
	policies := map[string]batch.Policy{
		"arrival":  batch.Arrival,
		"neediest": batch.NeediestFirst,
		"shortest": batch.ShortestFirst,
	}
	var runPolicies []string
	if strings.ToLower(*policy) == "all" {
		runPolicies = []string{"arrival", "neediest", "shortest"}
	} else {
		if _, ok := policies[strings.ToLower(*policy)]; !ok {
			fmt.Fprintf(os.Stderr, "unknown -policy %q\n", *policy)
			os.Exit(2)
		}
		runPolicies = []string{strings.ToLower(*policy)}
	}

	// Every policy sees an identical fresh world (same seed), so the rows
	// compare apples to apples; the runs are independent, so they fan out on
	// the engine.
	tag := fmt.Sprintf("seed=%d solver=%s policies=%s", *seed, sv.Name(), strings.Join(runPolicies, ","))
	seeder := func(int) int64 { return *seed }
	policyRun := func(i int, rng *rand.Rand) (*batch.Summary, error) {
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = *residual
		cfg.Expectation = *rho
		net := cfg.Network(rng)
		var reqs []*mec.Request
		for j := 0; j < *n; j++ {
			reqs = append(reqs, cfg.Request(rng, j, net.Catalog().Size()))
		}
		return batch.Run(net, reqs, rng, batch.Options{
			Solver: sv, Policy: policies[runPolicies[i]], L: *l, RandomPrimaries: true,
		})
	}
	var (
		sums     []*batch.Summary
		failures []engine.TrialError
	)
	if *failSoft {
		sums, failures, err = engine.RunPartial(context.Background(), len(runPolicies), *workers,
			seeder, policyRun, engine.FailSoftOptions{Tag: tag})
	} else {
		sums, err = engine.RunTagged(context.Background(), tag, len(runPolicies), *workers, seeder, policyRun)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "batchrun: %v\n", err)
		os.Exit(1)
	}
	failed := make(map[int]engine.TrialError, len(failures))
	for _, f := range failures {
		failed[f.Trial] = f
	}

	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("batchrun")
		manifest.Seed = *seed
		manifest.Workers = *workers
		manifest.Solvers = []string{sv.Name()}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tadmitted\tmet ρ\tmet rate\tmean reliability\tresidual left (MHz)")
	for i, pname := range runPolicies {
		sum := sums[i]
		if f, ok := failed[i]; ok || sum == nil {
			fmt.Fprintf(w, "%s\tfailed\t-\t-\t-\t-\n", pname)
			manifest.Add(obs.RunRecord{
				Name: "batch", Policy: pname, Solver: sv.Name(), Seed: *seed,
				Trials: *n, Outcome: "failed", Detail: f.Error(),
			})
			continue
		}
		metRate := 0.0
		if sum.Admitted > 0 {
			metRate = float64(sum.Met) / float64(sum.Admitted)
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%d\t%.2f\t%.4f\t%.0f\n",
			pname, sum.Admitted, *n, sum.Met, metRate, sum.MeanReliability, sum.ResidualLeft)
		manifest.Add(obs.RunRecord{
			Name: "batch", Policy: pname, Solver: sv.Name(), Seed: *seed,
			Trials: *n, Outcome: "ok",
			Detail: fmt.Sprintf("admitted=%d met=%d mean_reliability=%.4f", sum.Admitted, sum.Met, sum.MeanReliability),
		})
	}
	w.Flush()
	if manifest != nil {
		if err := manifest.WriteFile(*manifestPath, obs.Default()); err != nil {
			fmt.Fprintf(os.Stderr, "run-manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *manifestPath)
	}
}
