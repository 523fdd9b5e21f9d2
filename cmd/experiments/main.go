// Command experiments reproduces the evaluation of the paper (Section 7):
//
//	go run ./cmd/experiments -fig 1            # Figure 1 (SFC length sweep)
//	go run ./cmd/experiments -fig 2            # Figure 2 (function reliability)
//	go run ./cmd/experiments -fig 3            # Figure 3 (residual capacity)
//	go run ./cmd/experiments -fig hops         # ablation: hop bound l
//	go run ./cmd/experiments -fig objective    # ablation: ILP objective
//	go run ./cmd/experiments -fig all          # everything
//
// Each figure prints its three sub-plot tables (reliability, capacity usage,
// running time) and optionally writes a CSV per figure with -csvdir.
// The paper averages 1,000 trials per point; -trials controls the trade-off
// between fidelity and runtime (means are stable well before 1,000). Trials
// fan out across -workers goroutines (default: GOMAXPROCS); every table is
// bit-identical regardless of worker count. -solvers picks algorithms by
// registered name (see internal/core's solver registry), e.g.
// -solvers heuristic,greedy.
//
// -seed fixes the base RNG seed and -svgdir writes per-sub-plot SVG charts.
// A failing trial aborts its sweep (exit 1); -q suppresses progress lines.
// Shared observability flags: -obs-addr serves
// /metrics and pprof, -log-level sets the structured log level, and
// -run-manifest writes a JSON run manifest.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values, so a test can
// capture the output: 0 success, 1 a failed run, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "which experiment to run: 1, 2, 3, hops, objective, theorem, all")
	trials := fs.Int("trials", 100, "trials per data point (paper: 1000)")
	seed := fs.Int64("seed", 42, "base RNG seed")
	workers := fs.Int("workers", 0, "parallel trial workers (<=0: GOMAXPROCS; results identical for any value)")
	solvers := fs.String("solvers", "ILP,Randomized,Heuristic", "comma-separated registered solver names, or \"all\"")
	csvdir := fs.String("csvdir", "", "directory for per-figure CSV output (optional)")
	svgdir := fs.String("svgdir", "", "directory for per-sub-plot SVG charts (optional)")
	quiet := fs.Bool("q", false, "suppress progress lines")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /debug/vars, /debug/pprof/ on this address (e.g. :9090 or :0; empty: off)")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn, error")
	manifestPath := fs.String("run-manifest", "", "write a JSON run manifest (command, seeds, per-point records, metrics snapshot) to this path")
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

	selected, err := core.ResolveSolvers(*solvers)
	if err != nil {
		fmt.Fprintf(stderr, "-solvers: %v\n", err)
		return 2
	}
	opt := experiments.Options{
		Trials:  *trials,
		Seed:    *seed,
		Workers: *workers,
		Quiet:   *quiet,
		Solvers: selected,
	}

	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("experiments")
		manifest.Seed = *seed
		manifest.Trials = *trials
		manifest.Workers = *workers
		for _, s := range selected {
			manifest.Solvers = append(manifest.Solvers, s.Name())
		}
	}

	runners := map[string]func(experiments.Options) (*experiments.Sweep, error){
		"1":         experiments.Fig1,
		"2":         experiments.Fig2,
		"3":         experiments.Fig3,
		"hops":      experiments.AblationHops,
		"objective": experiments.AblationObjective,
	}
	var order []string
	switch strings.ToLower(*fig) {
	case "all":
		order = []string{"1", "2", "3", "hops", "objective", "theorem"}
	default:
		if _, ok := runners[*fig]; !ok && *fig != "theorem" {
			fmt.Fprintf(stderr, "unknown -fig %q (want 1, 2, 3, hops, objective, theorem, all)\n", *fig)
			return 2
		}
		order = []string{*fig}
	}

	for _, name := range order {
		if name == "theorem" {
			ts, err := experiments.TheoremCheck(opt)
			if err != nil {
				fmt.Fprintf(stderr, "theorem: %v\n", err)
				return 1
			}
			for _, p := range ts.Points {
				manifest.Add(obs.RunRecord{
					Name: "theorem", Label: p.Label, Seed: ts.Seed,
					Trials: ts.Trials, Outcome: "ok",
				})
			}
			fmt.Fprintln(stdout)
			if err := ts.RenderTables(stdout); err != nil {
				fmt.Fprintf(stderr, "render: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout)
			continue
		}
		sweep, err := runners[name](opt)
		if err != nil {
			fmt.Fprintf(stderr, "fig %s: %v\n", name, err)
			return 1
		}
		sweep.AppendManifest(manifest)
		fmt.Fprintln(stdout)
		if err := sweep.RenderTables(stdout); err != nil {
			fmt.Fprintf(stderr, "render: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
		if *csvdir != "" {
			if err := os.MkdirAll(*csvdir, 0o755); err != nil {
				fmt.Fprintf(stderr, "csvdir: %v\n", err)
				return 1
			}
			path := filepath.Join(*csvdir, sweep.Name+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(stderr, "csv: %v\n", err)
				return 1
			}
			if err := sweep.RenderCSV(f); err != nil {
				f.Close()
				fmt.Fprintf(stderr, "csv: %v\n", err)
				return 1
			}
			f.Close()
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		if *svgdir != "" {
			if err := os.MkdirAll(*svgdir, 0o755); err != nil {
				fmt.Fprintf(stderr, "svgdir: %v\n", err)
				return 1
			}
			for i, chart := range sweep.Charts() {
				path := filepath.Join(*svgdir, fmt.Sprintf("%s_%c.svg", sweep.Name, 'a'+i))
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintf(stderr, "svg: %v\n", err)
					return 1
				}
				if err := chart.Render(f); err != nil {
					f.Close()
					fmt.Fprintf(stderr, "svg: %v\n", err)
					return 1
				}
				f.Close()
				fmt.Fprintf(stdout, "wrote %s\n", path)
			}
		}
	}
	if manifest != nil {
		if err := manifest.WriteFile(*manifestPath, obs.Default()); err != nil {
			fmt.Fprintf(stderr, "run-manifest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *manifestPath)
	}
	return 0
}
