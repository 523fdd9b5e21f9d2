package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netio"
	"repro/internal/topology"
)

// TestEveryModelWritesConnectedGraph runs every -model through the JSON
// writer and rebuilds the graph from what it wrote: the dump must decode
// strictly, carry one coordinate per node, and, written out as a scenario
// that netio.ReadFile and Build turn back into a network, describe a
// connected graph with the dump's edge count and the size the model
// promises for -n (a grid pads to the next square; a transit-stub hierarchy
// has transit·(1 + stubs·stubSize) nodes). The DOT writer must emit the same
// nodes and edges.
func TestEveryModelWritesConnectedGraph(t *testing.T) {
	const n = 30
	side := 6 // smallest square holding n nodes
	ts := topology.DefaultTransitStub(n)
	for model, want := range map[string]int{
		"waxman":      n,
		"transitstub": ts.TransitNodes * (1 + ts.StubsPerNode*ts.StubSize),
		"er":          n,
		"grid":        side * side,
		"ring":        n,
		"star":        n,
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-model", model, "-n", "30", "-seed", "3", "-p", "0.1"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", model, code, &stderr)
		}
		dec := json.NewDecoder(&stdout)
		dec.DisallowUnknownFields()
		var d dump
		if err := dec.Decode(&d); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if d.Model != model || d.N != want || len(d.Coords) != want || d.M != len(d.Edges) {
			t.Fatalf("%s: model %q, %d nodes, %d coords, m=%d for %d edges; want %d nodes",
				model, d.Model, d.N, len(d.Coords), d.M, len(d.Edges), want)
		}
		for _, e := range d.Edges {
			if e[0] >= e[1] {
				t.Fatalf("%s: edge %v is not an ordered pair", model, e)
			}
		}
		// Round-trip the dump through a scenario file: Build rejects
		// out-of-range edges and self-loops.
		path := filepath.Join(t.TempDir(), model+".json")
		sc := &netio.Scenario{
			Nodes: d.N, Edges: d.Edges, Capacity: make([]float64, d.N),
			Catalog: []netio.Function{{Name: "fw", Demand: 1, Reliability: 0.9}},
		}
		if err := netio.WriteFile(path, sc); err != nil {
			t.Fatal(err)
		}
		back, err := netio.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		net, _, err := back.Build()
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if g := net.G; g.N() != want || g.M() != d.M || !g.Connected() {
			t.Fatalf("%s: rebuilt graph has %d nodes and %d edges (dump says %d), connected=%v", model, g.N(), g.M(), d.M, g.Connected())
		}

		stdout.Reset()
		if code := run([]string{"-model", model, "-n", "30", "-seed", "3", "-p", "0.1", "-format", "dot"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s dot: exit %d (stderr: %s)", model, code, &stderr)
		}
		dot := stdout.String()
		if nodes, edges := strings.Count(dot, "[pos="), strings.Count(dot, " -- "); nodes != d.N || edges != d.M {
			t.Fatalf("%s dot: %d nodes and %d edges, json has %d and %d", model, nodes, edges, d.N, d.M)
		}
	}
}

// TestUsageErrorsExit2 pins the exit code of every usage error.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "hypercube"},
		{"-format", "svg"},
		{"-nodes", "5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
