// Command topogen generates MEC network topologies (Waxman / transit-stub /
// Erdős–Rényi / grid) and dumps them as JSON or Graphviz DOT.
//
//	go run ./cmd/topogen -model waxman -n 100 -format dot > net.dot
//
// -seed fixes the generator RNG and -p sets the edge probability of the er
// model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/topology"
)

type dump struct {
	Model  string       `json:"model"`
	N      int          `json:"n"`
	M      int          `json:"m"`
	Edges  [][2]int     `json:"edges"`
	Coords [][2]float64 `json:"coords"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values, so a test can
// capture the output: 0 success, 1 a failed write, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "waxman", "waxman, transitstub, er, grid, ring, star")
	n := fs.Int("n", 100, "approximate node count")
	seed := fs.Int64("seed", 1, "RNG seed")
	format := fs.String("format", "json", "json or dot")
	p := fs.Float64("p", 0.05, "edge probability (er model)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rng := rand.New(rand.NewSource(*seed))
	var top *topology.Topology
	switch *model {
	case "waxman":
		top = topology.Waxman(topology.DefaultWaxman(*n), rng)
	case "transitstub":
		top = topology.TransitStub(topology.DefaultTransitStub(*n), rng)
	case "er":
		top = topology.ErdosRenyi(*n, *p, rng)
	case "grid":
		side := 1
		for side*side < *n {
			side++
		}
		top = topology.Grid(side, side)
	case "ring":
		top = topology.Ring(*n)
	case "star":
		top = topology.Star(*n)
	default:
		fmt.Fprintf(stderr, "unknown -model %q\n", *model)
		return 2
	}

	switch *format {
	case "json":
		d := dump{Model: *model, N: top.G.N(), M: top.G.M(), Edges: top.G.Edges()}
		for _, c := range top.Coords {
			d.Coords = append(d.Coords, [2]float64{c.X, c.Y})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	case "dot":
		fmt.Fprintln(stdout, "graph mec {")
		for i, c := range top.Coords {
			fmt.Fprintf(stdout, "  n%d [pos=\"%.3f,%.3f!\"];\n", i, c.X*10, c.Y*10)
		}
		for _, e := range top.G.Edges() {
			fmt.Fprintf(stdout, "  n%d -- n%d;\n", e[0], e[1])
		}
		fmt.Fprintln(stdout, "}")
	default:
		fmt.Fprintf(stderr, "unknown -format %q\n", *format)
		return 2
	}
	return 0
}
