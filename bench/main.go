// Command bench is the repository's one benchmark: over-the-wire serving
// against real augmentd subprocesses, in-process waves against serve.Service,
// and the paper's Fig. 1 sweep through cmd/experiments, with a traced pass and
// layer probes that say where the time goes. See README.md.
//
//	bash bench/run.sh                                  # the whole suite: tables + one JSON result
//	bash bench/run.sh -workload wire-default -seed 2   # one repetition of one workload
//	bash bench/run.sh -compare A.json B.json           # verdict per workload × end-to-end metric
//	bash bench/run.sh -selfcheck                       # the suite twice; fails if they disagree
//	bash bench/run.sh -spec > BENCHMARK.json           # regenerate the contract from catalog.go
//
// bench is a module of its own (go.mod here, `replace repro => ../`), so the
// repository's build and tests do not include it; run.sh builds it and the
// two binaries under test into .bench_build/ and execs it from the
// repository root. The benchmark driver runs `bash bench/run.sh --workload W
// --seed N --seconds S --trace 0|1`; the last line of standard output is then
// one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "run one repetition of this workload and print the driver's JSON line (empty: run the suite)")
	seed := flag.Int64("seed", 1, "traffic seed: request streams, failing cloudlets and probe pools derive from it")
	seconds := flag.Float64("seconds", 0, "measured phase per repetition in seconds (0: 10 for -workload, 4 in the suite)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing at the program's defaults; 1: per-layer metrics from a traced pass and probes")
	workDir := flag.String("workdir", ".bench_build", "scratch directory for binaries, scenarios, WALs and logs (run.sh sets it to the git-ignored .bench_build)")
	binDir := flag.String("bindir", "", "directory holding prebuilt augmentd and experiments (the suite sets it for its child runs; empty: build them under -workdir)")
	detail := flag.String("detail", "", "with -workload: also write sample counts, suite-gated values, stage budget and probe spans to this JSON file (the suite sets it for its child runs)")
	out := flag.String("out", "", "suite: write the result JSON here (default <workdir>/result.json)")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as generated from the metric catalog and exit")
	compare := flag.Bool("compare", false, "compare two suite results: bench -compare A.json B.json")
	selfcheck := flag.Bool("selfcheck", false, "run two suites of the same code, repetitions alternating, and fail if any gated median differs by more than its bound")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := func() (int, error) {
		switch {
		case *spec:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return 0, enc.Encode(buildSpec())
		case *compare:
			if flag.NArg() != 2 {
				return 2, fmt.Errorf("usage: bench -compare A.json B.json")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		}
		abs, err := filepath.Abs(*workDir)
		if err != nil {
			return 1, err
		}
		if err := os.MkdirAll(abs, 0o755); err != nil {
			return 1, err
		}
		if *binDir == "" {
			if *binDir, err = buildBinaries(ctx, abs); err != nil {
				return 1, err
			}
		}
		if *workload == "" {
			if *seconds == 0 {
				*seconds = 4
			}
			cfg := suiteConfig{ctx: ctx, workDir: abs, binDir: *binDir, seed: *seed, seconds: *seconds}
			if *selfcheck {
				return runSelfcheck(cfg)
			}
			if *out == "" {
				*out = filepath.Join(abs, "result.json")
			}
			return runSuite(cfg, *out)
		}
		s := specByName(*workload)
		if s == nil {
			return 2, fmt.Errorf("unknown workload %q", *workload)
		}
		if *seconds == 0 {
			*seconds = runSeconds
		}
		runDir, err := os.MkdirTemp(abs, "run-*")
		if err != nil {
			return 1, err
		}
		defer os.RemoveAll(runDir)
		e := &env{ctx: ctx, binDir: *binDir, runDir: runDir}
		res, det, err := runOnce(e, s, *seed, *seconds, *trace == 1)
		if err != nil {
			return 1, err
		}
		printRun(s, res, det, *trace == 1)
		if *detail != "" {
			raw, err := json.MarshalIndent(det, "", "  ")
			if err != nil {
				return 1, err
			}
			if err := os.WriteFile(*detail, raw, 0o644); err != nil {
				return 1, err
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
		return 0, nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

// buildBinaries compiles the two programs under test from the repository's
// module, whose root is the current directory, into <workDir>/bin.
func buildBinaries(ctx context.Context, workDir string) (string, error) {
	bin := filepath.Join(workDir, "bin")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/augmentd", "./cmd/experiments")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build (run from the repository root): %w\n%s", err, out)
	}
	return bin, nil
}

// runOnce runs one repetition of one workload. With trace it reports the
// per-layer metrics instead: half the measured time untraced (the baseline
// for the tracing overhead), half traced, then the layer probes.
func runOnce(e *env, s *spec, seed int64, seconds float64, trace bool) (*runResult, *runDetail, error) {
	det := &runDetail{Samples: make(map[string]int)}
	res := &runResult{Correct: true}
	ps := probeSpans{}
	var values map[string]float64
	if trace {
		seconds /= 2
	}
	if s.kind == kindOffline {
		r, err := runOffline(e, s, seconds, trace)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted = r.solves * len(r.sweeps)
		det.Samples["sweeps"] = len(r.sweeps)
		det.Samples["trial_solves_per_sweep"] = r.solves
		if trace {
			values = offlinePerLayer(r)
		} else {
			values = offlineEndToEnd(r)
		}
	} else {
		serving := func(mode traceMode) (*servingRun, error) {
			if s.kind == kindInproc {
				return runInproc(s, seed, seconds, mode)
			}
			return runWire(e, s, seed, seconds, mode == traceKept)
		}
		// End to end, tracing stays at the program's default. In a traced
		// pass the in-process baseline turns it off, so the overhead share is
		// the flight recorder's own cost (there is no echo to pay for); the
		// wire baseline keeps the default and the share is echo plus obs.
		baseline := traceDefault
		if trace {
			baseline = traceOff
		}
		un, err := serving(baseline)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted, res.Failed = un.augments+un.releases, un.failed
		det.Samples["augments"], det.Samples["releases"] = un.augments, un.releases
		if !trace {
			if values, err = servingEndToEnd(un); err != nil {
				return nil, nil, err
			}
		} else {
			tr, err := serving(traceKept)
			if err != nil {
				return nil, nil, err
			}
			det.Samples["traced_requests"] = len(tr.traced)
			if values, det.Stages, err = servingPerLayer(un, tr); err != nil {
				return nil, nil, err
			}
			if s.durable {
				wm, err := probeWAL(tr.walDir, e.runDir, ps)
				if err != nil {
					return nil, nil, err
				}
				for k, v := range wm {
					values[k] = v
				}
			}
		}
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		pm, err := probeLayers(s, seed, ps)
		if err != nil {
			return nil, nil, err
		}
		if s.kind == kindOffline {
			pool, _, err := s.pool(seed, 20)
			if err != nil {
				return nil, nil, err
			}
			if pm["core.solve_ms_max.ILP"], err = probeWorstILP(pool, ps); err != nil {
				return nil, nil, err
			}
		}
		for k, v := range pm {
			values[k] = v
		}
		det.Probes = ps.summary()
	} else {
		det.Gated = takeGated(values)
	}
	var err error
	if res.Metrics, err = fill(defs, values); err != nil {
		return nil, nil, err
	}
	return res, det, nil
}

// printRun prints every metric by name with its unit, then the stage budget
// of a traced run.
func printRun(s *spec, res *runResult, det *runDetail, trace bool) {
	fmt.Printf("workload %s: attempted=%d failed=%d", s.name, res.Attempted, res.Failed)
	keys := make([]string, 0, len(det.Samples))
	for k := range det.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, det.Samples[k])
	}
	fmt.Println()
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	printStages(det.Stages)
}

func printStages(rows []stageStats) {
	if len(rows) == 0 {
		return
	}
	fmt.Println("  where the time goes (self time per traced request, µs):")
	fmt.Printf("  %-14s %10s %10s %10s %8s\n", "stage", "mean", "p50", "p95", "share")
	for _, r := range rows {
		fmt.Printf("  %-14s %10.1f %10.1f %10.1f %7.1f%%\n", r.Stage, r.MeanUS, r.P50US, r.P95US, 100*r.Share)
	}
}
