// Package failsim is a Monte-Carlo failure simulator for augmented SFC
// placements. The paper's reliability calculus (Eq. 1: R_i = 1-(1-r_i)^{n_i+1},
// chain reliability Π R_i) is an analytical model; failsim draws actual VNF
// instance up/down states and replays the failover discipline of Section 3 —
// the primary serves while up; on its failure any idle secondary (state-
// synchronised within l hops) takes over; the chain is up iff every function
// has at least one live instance — yielding an empirical service availability
// to cross-check the model, plus diagnostics the analytical model cannot
// give (which function breaks the chain most often, cloudlet blast radius).
package failsim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
)

// Outcome aggregates a simulation run.
type Outcome struct {
	Trials int
	// Up is the number of trials where the whole chain had a live instance
	// for every function.
	Up int
	// Availability = Up / Trials, the empirical counterpart of Π R_i.
	Availability float64
	// Analytical is the model's Π R_i for the same placement.
	Analytical float64
	// FuncDown[i] counts trials where chain position i had no live instance
	// (the chain's weakest links).
	FuncDown []int
	// FailoverDepth histograms, per trial-function with a dead primary but a
	// live secondary, how many instances were dead before the first live one
	// (1 = first secondary took over).
	FailoverDepth map[int]int
}

// Simulate draws trials independent failure scenarios for a solved placement.
// Each VNF instance of chain position i is up independently with probability
// r_i (the paper's identical-reliability assumption). Invalid input — a
// non-positive trial count, a nil result, or a result detached from its
// instance — is reported as an error, never a panic, so batch pipelines can
// skip the bad placement and keep going.
func Simulate(res *core.Result, trials int, rng *rand.Rand) (*Outcome, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("failsim: trials %d must be positive", trials)
	}
	if res == nil {
		return nil, fmt.Errorf("failsim: nil result")
	}
	inst := res.Instance
	if inst == nil {
		return nil, fmt.Errorf("failsim: result has no instance attached")
	}
	out := &Outcome{
		Trials:        trials,
		FuncDown:      make([]int, len(inst.Positions)),
		FailoverDepth: make(map[int]int),
		Analytical:    res.Reliability,
	}
	for t := 0; t < trials; t++ {
		chainUp := true
		for i := range inst.Positions {
			r := inst.Positions[i].Func.Reliability
			instances := 1 + res.Counts[i] // primary + secondaries
			alive := -1
			for k := 0; k < instances; k++ {
				if rng.Float64() < r {
					alive = k
					break
				}
			}
			if alive < 0 {
				out.FuncDown[i]++
				chainUp = false
				continue
			}
			if alive > 0 {
				out.FailoverDepth[alive]++
			}
		}
		if chainUp {
			out.Up++
		}
	}
	out.Availability = float64(out.Up) / float64(trials)
	return out, nil
}

// WeakestLink returns the chain position that most often had no live
// instance, with its failure count (-1 if the chain never failed).
func (o *Outcome) WeakestLink() (pos, count int) {
	pos, count = -1, 0
	for i, c := range o.FuncDown {
		if c > count {
			pos, count = i, c
		}
	}
	return pos, count
}

// CloudletOutage estimates chain availability when a whole cloudlet fails
// (all its instances down, others up/down as usual): for each cloudlet used
// by the placement, the availability conditioned on that cloudlet being dark.
// This is a blast-radius diagnostic outside the paper's model (the paper
// assumes independent per-instance failures; correlated cloudlet failures
// are the natural operator follow-up question). Like Simulate it reports
// invalid input as an error instead of panicking.
func CloudletOutage(res *core.Result, trials int, rng *rand.Rand) (map[int]float64, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("failsim: trials %d must be positive", trials)
	}
	if res == nil {
		return nil, fmt.Errorf("failsim: nil result")
	}
	inst := res.Instance
	if inst == nil {
		return nil, fmt.Errorf("failsim: result has no instance attached")
	}
	secondaries := res.Secondaries()
	used := make(map[int]bool)
	for i := range inst.Positions {
		used[inst.Req.Primaries[i]] = true
		for _, u := range secondaries[i] {
			used[u] = true
		}
	}
	// All cloudlets draw from the one rng, so they are visited in ascending
	// order: map order would hand each a different slice of the stream on
	// every run.
	order := make([]int, 0, len(used))
	for u := range used {
		order = append(order, u)
	}
	sort.Ints(order)
	out := make(map[int]float64, len(order))
	for _, dark := range order {
		up := 0
		for t := 0; t < trials; t++ {
			chainUp := true
			for i := range inst.Positions {
				r := inst.Positions[i].Func.Reliability
				alive := false
				if inst.Req.Primaries[i] != dark && rng.Float64() < r {
					alive = true
				}
				if !alive {
					for _, u := range secondaries[i] {
						if u != dark && rng.Float64() < r {
							alive = true
							break
						}
					}
				}
				if !alive {
					chainUp = false
					break
				}
			}
			if chainUp {
				up++
			}
		}
		out[dark] = float64(up) / float64(trials)
	}
	return out, nil
}
