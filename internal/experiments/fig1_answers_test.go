package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateFig1ILP = flag.Bool("update-fig1-ilp", false, "rewrite "+fig1ILPPath+" from the current exact solver")

// fig1ILPPath holds one line per Fig. 1 trial at -trials 40 -seed 42:
// "length trial rel_bits proven", rel_bits being the exact solver's
// reliability as raw float64 bits.
const fig1ILPPath = "testdata/fig1_ilp_t40_s42.txt"

// TestFig1ILPAnswersHold pins the exact solver's Fig. 1 answers at the
// benchmark's sweep (-trials 40 -seed 42): every trial's reliability bit for
// bit, and its proven flag. A search change may prove an answer it could not
// prove before, but it may not move a reliability or lose a proof, so the
// figure's exact column cannot fall silently behind a faster search.
func TestFig1ILPAnswersHold(t *testing.T) {
	opt := Options{Trials: 40, Seed: 42, Quiet: true, Solvers: mustSolvers("ILP")}
	points := fig1Points()
	raw, err := runTrials("fig1", "SFC length", points, opt)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for p, pt := range points {
		for tr, rec := range raw[p]["ILP"] {
			got = append(got, fmt.Sprintf("%s %d %d %v", pt.label, tr, math.Float64bits(rec.rel), rec.proven))
		}
	}

	if *updateFig1ILP {
		if err := os.WriteFile(fig1ILPPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d trials to %s", len(got), fig1ILPPath)
		return
	}

	f, err := os.Open(fig1ILPPath)
	if err != nil {
		t.Fatalf("%v (run with -update-fig1-ilp to create)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d trials, the sweep ran %d", fig1ILPPath, len(want), len(got))
	}
	for k, w := range want {
		var wLen, gLen string
		var wTrial, gTrial int
		var wBits, gBits uint64
		var wProven, gProven bool
		if _, err := fmt.Sscan(w, &wLen, &wTrial, &wBits, &wProven); err != nil {
			t.Fatalf("%s line %d: %v", fig1ILPPath, k+1, err)
		}
		fmt.Sscan(got[k], &gLen, &gTrial, &gBits, &gProven)
		switch {
		case wLen != gLen || wTrial != gTrial:
			t.Fatalf("line %d is length %s trial %d, the sweep's is length %s trial %d", k+1, wLen, wTrial, gLen, gTrial)
		case gBits != wBits:
			t.Errorf("length %s trial %d: reliability %v, pinned %v", gLen, gTrial, math.Float64frombits(gBits), math.Float64frombits(wBits))
		case wProven && !gProven:
			t.Errorf("length %s trial %d: the pinned answer was proven optimal, this one is not", gLen, gTrial)
		}
	}
}
