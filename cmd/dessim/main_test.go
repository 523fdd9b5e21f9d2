package main

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/des"
)

// TestSameSeedSameTable pins the command's seeded determinism end to end:
// one flag set, two runs, byte-identical stdout — and another seed moves it.
// The cases are a rate sweep under churn and the three arrival orders as
// batch admission (no departures before the horizon).
func TestSameSeedSameTable(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		header string // the first column: order only when several orders run
		rows   int
	}{
		{[]string{"-rate", "1", "-hold", "8", "-sweep"}, "rate", 5},
		{[]string{"-rate", "1", "-hold", "inf", "-order", "all"}, "order", 3},
	} {
		table := func(seed string) string {
			t.Helper()
			var stdout, stderr bytes.Buffer
			args := append([]string{"-seed", seed, "-rho", "0.95", "-horizon", "60", "-warmup", "5", "-log-level", "error"}, tc.args...)
			if code := run(args, &stdout, &stderr, des.Run); code != 0 {
				t.Fatalf("%v: exit %d (stderr: %s)", args, code, &stderr)
			}
			return stdout.String()
		}
		first := table("7")
		if !strings.HasPrefix(first, tc.header+" ") {
			t.Fatalf("%v: want a table led by %q:\n%s", tc.args, tc.header, first)
		}
		if lines := strings.Count(first, "\n"); lines != tc.rows+1 {
			t.Fatalf("%v: want a header and %d rows, got %d lines:\n%s", tc.args, tc.rows, lines, first)
		}
		if again := table("7"); again != first {
			t.Fatalf("%v: one seed, two tables:\n%s\n%s", tc.args, first, again)
		}
		if other := table("8"); other == first {
			t.Fatalf("%v: the seed does not reach the simulation", tc.args)
		}
	}
}

// TestLedgerLeakExits1 pins the contract `make smoke-drivers` gates on: a
// run whose end-of-run conservation check fails is reported on stderr and
// the command exits 1 without printing a table for it.
func TestLedgerLeakExits1(t *testing.T) {
	leak := errors.New("des: capacity leaked: cloudlet 3 ends the run with 10 MHz free, started with 40")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-log-level", "error"}, &stdout, &stderr,
		func(des.Config, *rand.Rand) (*des.Metrics, error) { return nil, leak })
	if code != 1 || !strings.Contains(stderr.String(), "capacity leaked") || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}

// TestUsageErrorsExit2 pins that an order or a solver spec the command cannot
// resolve is a usage error, reported before any simulation runs.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-order", "bogus"},
		{"-solver", "nope"},
		{"-solver", "Heuristic@5ms,Greedy"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, des.Run); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q (stderr: %s)", args, code, &stdout, &stderr)
		}
	}
}

// TestOverloadDrillHoldsDominance runs the multi-tenant overload drill twice
// with one seed: each run must exit 0 with the knapsack ≥ fair ≥ fifo
// verdict, and both must print the same admission counts and tenant-weighted
// log-gain per policy. The p99 columns are wall-clock and are left out.
func TestOverloadDrillHoldsDominance(t *testing.T) {
	drill := func() []string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-overload", "-log-level", "error"}, &stdout, &stderr, des.Run); code != 0 {
			t.Fatalf("exit %d (stderr: %s)", code, &stderr)
		}
		if !strings.Contains(stdout.String(), "\noverload: OK knapsack(") {
			t.Fatalf("no overload: OK line:\n%s", &stdout)
		}
		var cols []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			// policy, admitted, quota, queue, shed, w-log-gain
			if f := strings.Fields(line); len(f) == 10 && f[0] != "overload:" {
				cols = append(cols, strings.Join(f[:6], " "))
			}
		}
		if len(cols) != 4 {
			t.Fatalf("want a header and three policy rows, got %q:\n%s", cols, &stdout)
		}
		return cols
	}
	first, again := drill(), drill()
	if strings.Join(first, "\n") != strings.Join(again, "\n") {
		t.Fatalf("one seed, two drills:\n%s\n%s", strings.Join(first, "\n"), strings.Join(again, "\n"))
	}
}
