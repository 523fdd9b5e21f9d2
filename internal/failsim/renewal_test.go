package failsim

import (
	"math/rand"
	"testing"
)

func TestFaultTimelineAlternates(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	transitions, err := Renewal([]int{0, 1, 2}, 5, 2, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		up bool
		at float64
	}
	last := map[int]state{}
	for _, tr := range transitions {
		if tr.At < 0 || tr.At >= 100 {
			t.Fatalf("transition at t=%v outside [0,100)", tr.At)
		}
		prev, seen := last[tr.Node]
		if !seen && tr.Up {
			t.Fatalf("node %d starts with a repair, want a failure", tr.Node)
		}
		if seen && prev.up == tr.Up {
			t.Fatalf("node %d has consecutive transitions to up=%v", tr.Node, tr.Up)
		}
		if seen && tr.At < prev.at {
			t.Fatalf("node %d goes back in time: %v after %v", tr.Node, tr.At, prev.at)
		}
		if tr.Coin < 0 || tr.Coin >= 1 || (tr.Up && tr.Coin != 0) {
			t.Fatalf("node %d up=%v carries coin %v", tr.Node, tr.Up, tr.Coin)
		}
		last[tr.Node] = state{tr.Up, tr.At}
	}
	if len(last) != 3 {
		t.Fatalf("timeline covered %d nodes, want 3 over a 100-unit horizon with MTBF 5", len(last))
	}
}

func TestRenewalRejectsNonPositiveMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Renewal([]int{0}, 0, 2, 10, rng); err == nil {
		t.Fatal("zero mean up time accepted")
	}
	if _, err := Renewal([]int{0}, 5, -1, 10, rng); err == nil {
		t.Fatal("negative mean down time accepted")
	}
}
