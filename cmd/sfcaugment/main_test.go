package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// solve runs the command in-process and returns its stdout without the
// per-solver runtime lines, the only wall-clock output.
func solve(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-log-level", "error"), &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d (stderr: %s)", args, code, &stderr)
	}
	var seeded []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "  runtime:") {
			seeded = append(seeded, line)
		}
	}
	return strings.Join(seeded, "\n")
}

// TestSameSeedSamePlacements pins seeded determinism through the command:
// one seed prints the same instance and the same placements from every
// solver twice, and another seed prints another instance.
func TestSameSeedSamePlacements(t *testing.T) {
	first := solve(t, "-sfc", "4", "-rho", "0.999", "-seed", "3", "-alg", "all")
	for _, alg := range []string{"== ILP ==", "== Randomized ==", "== Heuristic ==", "== Greedy =="} {
		if !strings.Contains(first, alg) {
			t.Fatalf("no %s block in:\n%s", alg, first)
		}
	}
	if again := solve(t, "-sfc", "4", "-rho", "0.999", "-seed", "3", "-alg", "all"); again != first {
		t.Fatalf("one seed, two outputs:\n%s\n%s", first, again)
	}
	if other := solve(t, "-sfc", "4", "-rho", "0.999", "-seed", "4", "-alg", "all"); other == first {
		t.Fatal("the seed does not reach the instance")
	}
}

// TestSaveLoadDumpRoundTrip pins the scenario files: a saved scenario loads
// back to the same instance and the same deterministic placements, and the
// dump is the JSON list of what was printed.
func TestSaveLoadDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	scn, dump := filepath.Join(dir, "scn.json"), filepath.Join(dir, "placements.json")
	body := func(out string) string {
		_, rest, _ := strings.Cut(out, "network:") // skip "scenario written to ..."
		rest, _, _ = strings.Cut(rest, "placements written to")
		return rest
	}
	saved := body(solve(t, "-sfc", "3", "-rho", "0.99", "-alg", "heuristic,greedy", "-save", scn))
	loaded := body(solve(t, "-load", scn, "-alg", "heuristic,greedy", "-dump", dump))
	if saved != loaded {
		t.Fatalf("loaded scenario solves differently:\n%s\n%s", saved, loaded)
	}
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var dumps []struct {
		Algorithm string `json:"algorithm"`
	}
	if err := json.Unmarshal(raw, &dumps); err != nil || len(dumps) != 2 || dumps[0].Algorithm != "Heuristic" {
		t.Fatalf("dump %s: %v %+v", raw, err, dumps)
	}
}
