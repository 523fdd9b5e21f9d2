// Command sfcaugment solves one service reliability augmentation instance
// end-to-end and prints the placement plan: it samples (or loads) an MEC
// network, admits one request with an SFC, places its primaries, and runs the
// selected algorithm(s).
//
//	go run ./cmd/sfcaugment -sfc 4 -rho 0.995 -alg all -seed 7
//	go run ./cmd/sfcaugment -fallback "ILP@50ms,Heuristic,Greedy"
//
// -l bounds secondary placement hops and -residual sets the sampled
// network's residual-capacity fraction; -admit picks the primary placement
// policy (random or maxrel). -load reads the scenario (network + request)
// from a JSON file instead of sampling, -save writes the sampled scenario
// out, and -dump prints it to stdout. Shared observability flags: -obs-addr
// serves /metrics and pprof, -log-level sets the structured log level, and
// -run-manifest writes a JSON run manifest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mec"
	"repro/internal/netio"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values, so a test can
// capture the output: 0 success, 1 a failed run, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfcaugment", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sfcLen := fs.Int("sfc", 5, "SFC length of the request")
	rho := fs.Float64("rho", 1.0, "reliability expectation ρ (1.0 = augment as much as possible)")
	seed := fs.Int64("seed", 1, "RNG seed")
	l := fs.Int("l", 1, "hop bound for secondary placement")
	residual := fs.Float64("residual", 0.25, "residual capacity fraction")
	alg := fs.String("alg", "all", "comma-separated registered solver names ("+strings.Join(core.Names(), ", ")+"), or \"all\"")
	fallback := fs.String("fallback", "", "solve through a fallback chain instead of -alg, e.g. \"ILP@50ms,Heuristic,Greedy\" (only the ILP takes an @budget, its deadline; first feasible stage serves)")
	admit := fs.String("admit", "random", "primary placement: random (paper §7) or maxrel (layered DAG)")
	load := fs.String("load", "", "load the scenario (network + request) from a JSON file instead of sampling")
	save := fs.String("save", "", "write the sampled scenario to a JSON file before solving")
	dump := fs.String("dump", "", "write the solved placements to a JSON file")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /debug/vars, /debug/pprof/ on this address (e.g. :9090 or :0; empty: off)")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn, error")
	manifestPath := fs.String("run-manifest", "", "write a JSON run manifest to this path")
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

	rng := rand.New(rand.NewSource(*seed))

	var net *mec.Network
	var req *mec.Request
	if *load != "" {
		scen, err := netio.ReadFile(*load)
		if err != nil {
			fmt.Fprintf(stderr, "load: %v\n", err)
			return 1
		}
		var reqs []*mec.Request
		net, reqs, err = scen.Build()
		if err != nil {
			fmt.Fprintf(stderr, "load: %v\n", err)
			return 1
		}
		if len(reqs) == 0 {
			fmt.Fprintln(stderr, "load: scenario has no requests")
			return 1
		}
		req = reqs[0]
	} else {
		cfg := workload.NewDefaultConfig()
		cfg.ResidualFraction = *residual
		cfg.HopBound = *l
		cfg.Expectation = *rho
		net = cfg.Network(rng)
		req = cfg.RequestWithLength(rng, 0, *sfcLen, net.Catalog().Size())
	}
	if len(req.Primaries) == 0 {
		switch *admit {
		case "random":
			workload.PlacePrimariesRandom(net, req, rng)
		case "maxrel":
			if err := admission.PlaceMaxReliability(net, req); err != nil {
				fmt.Fprintf(stderr, "admission failed: %v\n", err)
				return 1
			}
		default:
			fmt.Fprintf(stderr, "unknown -admit %q\n", *admit)
			return 2
		}
	}
	if *save != "" {
		if err := netio.WriteFile(*save, netio.Export(net, []*mec.Request{req})); err != nil {
			fmt.Fprintf(stderr, "save: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "scenario written to %s\n", *save)
	}

	inst := core.NewInstance(net, req, core.Params{L: *l})
	fmt.Fprintf(stdout, "network: %d APs, %d cloudlets; request: SFC length %d, ρ=%.4f\n",
		net.G.N(), len(net.Cloudlets()), req.Len(), req.Expectation)
	fmt.Fprintf(stdout, "primaries: %v\n", req.Primaries)
	fmt.Fprintf(stdout, "initial reliability (primaries only): %.4f\n", inst.InitialReliability)
	fmt.Fprintf(stdout, "candidate secondary items: %d\n\n", inst.TotalItems())

	var solvers []core.Solver
	if *fallback != "" {
		chain, err := core.ParseFallback("cli", *fallback)
		if err != nil {
			fmt.Fprintf(stderr, "-fallback: %v\n", err)
			return 2
		}
		solvers = []core.Solver{chain}
	} else {
		solvers, err = core.ResolveSolvers(*alg)
		if err != nil {
			fmt.Fprintf(stderr, "-alg: %v\n", err)
			return 2
		}
	}

	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("sfcaugment")
		manifest.Seed = *seed
		for _, sv := range solvers {
			manifest.Solvers = append(manifest.Solvers, sv.Name())
		}
	}

	var dumps []netio.PlacementDump
	for _, sv := range solvers {
		res, err := sv.Solve(inst, rng)
		if err != nil {
			manifest.Add(obs.RunRecord{
				Name: "sfcaugment", Solver: sv.Name(), Seed: *seed,
				Outcome: "error", Detail: err.Error(),
			})
			fmt.Fprintf(stderr, "%s failed: %v\n", sv.Name(), err)
			return 1
		}
		manifest.Add(obs.RunRecord{
			Name: "sfcaugment", Solver: sv.Name(), Seed: *seed, Trials: 1,
			Outcome: "ok",
			Detail:  fmt.Sprintf("reliability=%.6f met=%v", res.Reliability, res.MetExpectation),
			MeanMS:  float64(res.Runtime.Microseconds()) / 1000,
		})
		dumps = append(dumps, netio.PlacementDump{
			RequestID:   req.ID,
			Algorithm:   res.Algorithm,
			Reliability: res.Reliability,
			MetRho:      res.MetExpectation,
			Secondaries: res.Secondaries(),
		})
		fmt.Fprintf(stdout, "== %s ==\n", res.Algorithm)
		if res.ServedBy != "" {
			fmt.Fprintf(stdout, "  served by fallback stage: %s\n", res.ServedBy)
		}
		fmt.Fprintf(stdout, "  reliability: %.6f (met ρ: %v)\n", res.Reliability, res.MetExpectation)
		fmt.Fprintf(stdout, "  backups per position: %v\n", res.Counts)
		fmt.Fprintf(stdout, "  placements: %v\n", res.Secondaries())
		fmt.Fprintf(stdout, "  capacity usage avg/min/max: %.2f/%.2f/%.2f (violated: %v)\n",
			res.Usage.Avg, res.Usage.Min, res.Usage.Max, res.Violated)
		fmt.Fprintf(stdout, "  runtime: %v\n\n", res.Runtime)
	}
	if *dump != "" {
		if err := writePlacements(*dump, dumps); err != nil {
			fmt.Fprintf(stderr, "dump: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "placements written to %s\n", *dump)
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

// writePlacements dumps solved placements as indented JSON, closing the file
// on every path and surfacing Close errors (which is where a full disk bites).
func writePlacements(path string, dumps []netio.PlacementDump) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(dumps)
}
