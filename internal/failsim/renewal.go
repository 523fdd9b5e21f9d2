package failsim

import (
	"fmt"
	"math"
	"math/rand"
)

// Transition is one change of a node's state in an outage process.
type Transition struct {
	At   float64 // in [0, horizon)
	Node int
	Up   bool // a repair; false is a failure
	// Coin is a uniform [0,1) draw taken with every failure from the same
	// stream, for a consumer that splits failures into kinds (the chaos
	// drill's degraded-versus-down choice). Zero on repairs.
	Coin float64
}

// Renewal pre-generates the failures and repairs of every node over
// [0, horizon): per node an alternating-renewal process of exponential up
// periods (mean meanUp, the MTBF knob) and down periods (mean meanDown, the
// MTTR knob), independent of the other nodes. Nodes are drawn one after
// another in the order given, each in time order, so the result is a pure
// function of the arguments and the rng stream. A down period that crosses
// the horizon gets no repair: the node ends the run dark.
//
// This is the one outage generator in the tree, the dynamic counterpart of
// Simulate's static snapshot model: internal/des consumes the transitions in
// continuous time, internal/serve/loadgen's chaos drill buckets them into
// waves.
func Renewal(nodes []int, meanUp, meanDown, horizon float64, rng *rand.Rand) ([]Transition, error) {
	if meanUp <= 0 || meanDown <= 0 {
		return nil, fmt.Errorf("failsim: outage process needs mean up time %v and mean down time %v positive", meanUp, meanDown)
	}
	draw := func(mean float64) float64 { return -mean * math.Log(1-rng.Float64()) }
	var out []Transition
	for _, v := range nodes {
		t := draw(meanUp)
		for t < horizon {
			out = append(out, Transition{At: t, Node: v, Coin: rng.Float64()})
			t += draw(meanDown)
			if t < horizon {
				out = append(out, Transition{At: t, Node: v, Up: true})
			}
			t += draw(meanUp)
		}
	}
	return out, nil
}
