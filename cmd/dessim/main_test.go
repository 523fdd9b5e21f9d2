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
func TestSameSeedSameTable(t *testing.T) {
	table := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args = append(args, "-rate", "1", "-hold", "8", "-rho", "0.95", "-horizon", "60", "-warmup", "5", "-sweep", "-log-level", "error")
		if code := run(args, &stdout, &stderr, des.Run); code != 0 {
			t.Fatalf("%v: exit %d (stderr: %s)", args, code, &stderr)
		}
		return stdout.String()
	}
	first := table("-seed", "7")
	if rows := strings.Count(first, "\n"); rows != 6 {
		t.Fatalf("want a header and five sweep rows, got %d lines:\n%s", rows, first)
	}
	if again := table("-seed", "7"); again != first {
		t.Fatalf("one seed, two tables:\n%s\n%s", first, again)
	}
	if other := table("-seed", "8"); other == first {
		t.Fatal("the seed does not reach the simulation")
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
