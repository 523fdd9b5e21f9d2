package main

import (
	"bytes"
	"strings"
	"testing"
)

// figure runs the command in-process and returns its stdout up to the
// running-time panel, the one table that is wall-clock and not seeded.
func figure(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-trials", "3", "-q", "-log-level", "error")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d (stderr: %s)", args, code, &stderr)
	}
	seeded, _, found := strings.Cut(stdout.String(), "(c) running time")
	if !found {
		t.Fatalf("%v: no running-time panel in:\n%s", args, &stdout)
	}
	return seeded
}

// TestSameSeedSameFigure pins the harness's seeded determinism through the
// command: the reliability and capacity-usage panels are byte-identical for
// one seed at any worker count, and another seed moves them.
func TestSameSeedSameFigure(t *testing.T) {
	first := figure(t, "-fig", "3", "-seed", "42", "-solvers", "heuristic,greedy", "-workers", "1")
	if !strings.Contains(first, "(a)") || !strings.Contains(first, "(b)") {
		t.Fatalf("figure lost its seeded panels:\n%s", first)
	}
	if again := figure(t, "-fig", "3", "-seed", "42", "-solvers", "heuristic,greedy", "-workers", "4"); again != first {
		t.Fatalf("one seed, two figures:\n%s\n%s", first, again)
	}
	if other := figure(t, "-fig", "3", "-seed", "43", "-solvers", "heuristic,greedy"); other == first {
		t.Fatal("the seed does not reach the sweep")
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "9"}, {"-solvers", "nope"}, {"-fail-soft"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, &stderr)
		}
	}
}
