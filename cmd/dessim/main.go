// Command dessim runs the dynamic-arrival discrete-event simulation: Poisson
// request arrivals and exponential holding times, driven through an
// in-process serving stack (internal/serve, the code augmentd runs) that
// admits, augments, commits and releases every session. -solver serves every
// solve: a registered solver name (default Failsafe, Heuristic → Greedy) or
// an ad-hoc fallback chain such as "ILP@50ms,Heuristic,Greedy". -faults adds
// seeded cloudlet crash/repair injection as node health transitions, the
// service re-augmenting the sessions that fell below their expectation. A run
// whose ledger is not back at its initial state after the last release
// exits 1.
//
//	go run ./cmd/dessim -rate 1.0 -hold 20 -horizon 500 -sweep
//	go run ./cmd/dessim -faults -mean-up 100 -mean-down 10
//	go run ./cmd/dessim -solver "ILP@50ms,Heuristic,Greedy" -faults
//	go run ./cmd/dessim -order all -hold inf -horizon 60 -warmup 0
//	go run ./cmd/dessim -overload
//
// -order deals the sampled requests over the sampled arrival times in
// arrival order, neediest first (largest ρ − Π r_i) or shortest chain first;
// all runs the three and prints a row each, led by an order column. With
// -hold inf no session departs before the horizon, so the run is batch
// admission of one stream that only drains capacity.
//
// -rho sets the per-request reliability expectation, -seed the RNG seed,
// and -warmup the initial span excluded from metrics.
//
// -overload runs the multi-tenant admission-economics drill instead of the
// DES: the same 10x-overload stream of 640 requests is replayed through
// fifo, fair, and knapsack admission on an
// in-process serving stack — a flooding quota-limited low-weight tenant
// against a minority high-weight one — and the run prints per-policy
// admissions, denials, sheds, and per-tenant p99 latency, then exits
// non-zero unless knapsack >= fair >= fifo holds on tenant-weighted
// log-gain (see `make smoke-tenants`).
//
// Shared observability flags: -obs-addr serves /metrics and pprof,
// -log-level sets the structured log level, and -run-manifest writes a JSON
// run manifest.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, des.Run)) }

// run is main with its streams, exit code and simulator as values, so a test
// can capture the tables and hand in a simulation that fails: 0 success, 1 a
// failed run (a ledger that does not balance included), 2 a usage error.
func run(args []string, stdout, stderr io.Writer, simulate func(des.Config, *rand.Rand) (*des.Metrics, error)) int {
	fs := flag.NewFlagSet("dessim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rate := fs.Float64("rate", 0.5, "arrival rate λ (requests per time unit)")
	hold := fs.Float64("hold", 10, "mean session duration 1/μ")
	horizon := fs.Float64("horizon", 500, "simulated time span")
	warmup := fs.Float64("warmup", 50, "warmup period excluded from metrics")
	rho := fs.Float64("rho", 0.99, "reliability expectation per request")
	seed := fs.Int64("seed", 1, "RNG seed")
	solverSpec := fs.String("solver", "Failsafe", "registered solver ("+strings.Join(core.Names(), ", ")+"), or a fallback chain, e.g. \"ILP@50ms,Heuristic,Greedy\" (only the ILP takes an @budget, its deadline)")
	orderSpec := fs.String("order", "arrival", "arrival order of the sampled requests: "+strings.Join(des.Orders, ", ")+", or all")
	faults := fs.Bool("faults", false, "inject seeded cloudlet crash/repair events")
	meanUp := fs.Float64("mean-up", 100, "mean time between a cloudlet's repair and its next crash (MTBF, -faults)")
	meanDown := fs.Float64("mean-down", 10, "mean cloudlet repair duration (MTTR, -faults)")
	sweep := fs.Bool("sweep", false, "sweep the arrival rate ×{0.25,0.5,1,2,4}")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /debug/vars, /debug/pprof/ on this address (e.g. :9090 or :0; empty: off)")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn, error")
	manifestPath := fs.String("run-manifest", "", "write a JSON run manifest to this path")
	overload := fs.Bool("overload", false, "run the multi-tenant overload scenario instead of the DES: the same 10x request stream through fifo, fair, and knapsack admission, compared on tenant-weighted log-gain")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	srv, err := obs.Boot(*logLevel, *obsAddr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if srv != nil {
		defer srv.Close()
	}

	if *overload {
		return runOverload(*seed, stdout, stderr)
	}

	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("dessim")
		manifest.Seed = *seed
	}

	wl := workload.NewDefaultConfig()
	wl.Expectation = *rho

	rates := []float64{*rate}
	if *sweep {
		rates = []float64{*rate * 0.25, *rate * 0.5, *rate, *rate * 2, *rate * 4}
	}

	solver, err := core.ParseSolver("dessim", *solverSpec)
	if err != nil {
		fmt.Fprintln(stderr, "-solver:", err)
		return 2
	}
	orders := []string{strings.ToLower(*orderSpec)}
	if orders[0] == "all" {
		orders = des.Orders
	} else if !slices.Contains(des.Orders, orders[0]) {
		fmt.Fprintf(stderr, "unknown -order %q (want %s, or all)\n", *orderSpec, strings.Join(des.Orders, ", "))
		return 2
	}
	// The order column appears only when more than one order runs, so a
	// single-order table keeps its shape.
	lead := func(string) string { return "" }
	if len(orders) > 1 {
		lead = func(order string) string { return order + "\t" }
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	header := lead("order") + "rate\tarrivals\tblocked\tblocking\tmet rate\tmean reliability\tutilization\tmean active"
	if *faults {
		header += "\tcrashes\treaug ok/fail\tdropped\tSLO-viol time"
	}
	fmt.Fprintln(w, header)
	for _, order := range orders {
		for _, r := range rates {
			cfg := des.Config{
				ArrivalRate: r,
				MeanHold:    *hold,
				Horizon:     *horizon,
				Warmup:      *warmup,
				Workload:    wl,
				Solver:      solver,
				Order:       order,
				Faults:      des.FaultConfig{Enabled: *faults, MeanUp: *meanUp, MeanDown: *meanDown},
			}
			m, err := simulate(cfg, rand.New(rand.NewSource(*seed)))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			row := lead(order) + fmt.Sprintf("%.2f\t%d\t%d\t%.3f\t%.3f\t%.4f\t%.3f\t%.1f",
				r, m.Arrivals, m.Blocked, m.BlockingProbability, m.MetRate,
				m.MeanReliability, m.MeanUtilization, m.MeanActive)
			if *faults {
				row += fmt.Sprintf("\t%d\t%d/%d\t%d\t%.1f",
					m.Crashes, m.Reaugmented, m.ReaugFailed, m.DroppedSessions, m.SLOViolationTime)
			}
			fmt.Fprintln(w, row)
			detail := fmt.Sprintf("blocking=%.3f met_rate=%.3f utilization=%.3f",
				m.BlockingProbability, m.MetRate, m.MeanUtilization)
			if *faults {
				detail += fmt.Sprintf(" crashes=%d reaug=%d dropped=%d slo_viol=%.1f",
					m.Crashes, m.Reaugmented, m.DroppedSessions, m.SLOViolationTime)
			}
			manifest.Add(obs.RunRecord{
				Name: "dessim", Label: fmt.Sprintf("rate=%.2f", r), X: r, Policy: order,
				Solver: solver.Name(), Seed: *seed, Trials: m.Arrivals, Outcome: "ok",
				Detail: detail,
			})
			if len(m.ServedByStage) > 1 {
				fmt.Fprintf(stderr, "order %s, rate %.2f served by stage: %v\n", order, r, m.ServedByStage)
			}
		}
	}
	w.Flush()
	if manifest != nil {
		if err := manifest.WriteFile(*manifestPath, obs.Default()); err != nil {
			fmt.Fprintln(stderr, "run-manifest:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *manifestPath)
	}
	return 0
}
