package loadgen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/failsim"
	"repro/internal/serve"
)

// ChaosConfig shapes the deterministic fault-injection schedule of a chaos
// run: the alternating-renewal outage process of internal/failsim with time
// measured in waves. Every cloudlet alternates exponential up and down
// periods, and the resulting transitions are applied between waves through
// the service's /v1/node path — followed by one watchdog audit +
// re-augmentation round. The schedule is precomputed from Seed in ascending
// cloudlet order, so a fixed seed yields a bit-identical chaos run at any
// worker or batcher count.
type ChaosConfig struct {
	// Enabled turns fault injection on.
	Enabled bool
	// Seed drives the fault schedule (independent of the request stream's
	// Config.Seed). Default 1.
	Seed int64
	// MeanUpWaves is a cloudlet's mean number of waves between repair and
	// next failure (exponential; the MTBF knob). Default 8.
	MeanUpWaves float64
	// MeanDownWaves is a cloudlet's mean outage length in waves (exponential;
	// the MTTR knob). Default 2.
	MeanDownWaves float64
	// DegradedRatio is the probability a failure arrives as "degraded"
	// (capacity impaired, instances survive) instead of "down": 0 or below
	// never, 1 or above always. Default 0.
	DegradedRatio float64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanUpWaves <= 0 {
		c.MeanUpWaves = 8
	}
	if c.MeanDownWaves <= 0 {
		c.MeanDownWaves = 2
	}
	return c
}

// chaosSchedule is the precomputed outage schedule: the node health
// transitions to apply after each zero-based wave index.
type chaosSchedule map[int][]serve.NodeEvent

// buildChaosSchedule buckets failsim's outage process over [0, horizon) into
// waves: a transition at time t applies after wave ⌊t⌋, and a failure arrives
// as degraded instead of down when its coin falls below DegradedRatio.
// Within a wave, events apply in (node, time) generation order.
func buildChaosSchedule(cloudlets []int, cfg ChaosConfig, horizon int) chaosSchedule {
	sort.Ints(cloudlets)
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Renewal only rejects non-positive means, which withDefaults replaced.
	transitions, _ := failsim.Renewal(cloudlets, cfg.MeanUpWaves, cfg.MeanDownWaves, float64(horizon), rng)
	sched := make(chaosSchedule)
	for _, tr := range transitions {
		health := serve.HealthDown
		switch {
		case tr.Up:
			health = serve.HealthUp
		case tr.Coin < cfg.DegradedRatio:
			health = serve.HealthDegraded
		}
		w := int(tr.At)
		sched[w] = append(sched[w], serve.NodeEvent{Node: tr.Node, Health: health, Note: fmt.Sprintf("chaos wave %d", w)})
	}
	return sched
}

// applyWave applies wave w's scheduled events through the service's node
// health path and runs one audit + re-augmentation round, appending the
// canonical chaos-log lines (timing-independent, so two identically seeded
// runs compare equal) and updating the result's chaos counters.
func (sched chaosSchedule) applyWave(svc *serve.Service, res *Result, w int) {
	for _, ev := range sched[w] {
		nr, err := svc.ApplyHealth(ev.Node, ev.Health, ev.Note)
		if err != nil {
			continue
		}
		res.NodeEvents++
		res.InstancesDestroyed += nr.InstancesDestroyed
		res.ChaosLines = append(res.ChaosLines, fmt.Sprintf(
			"wave=%d node=%d health=%s destroyed=%d affected=%d queued=%d",
			w, ev.Node, ev.Health, nr.InstancesDestroyed, nr.SessionsAffected, nr.ReaugQueued))
	}
	rep := svc.AuditOnce()
	recordReaug(res, w, rep)
}

// recordReaug folds one re-augmentation round into the result.
func recordReaug(res *Result, w int, rep serve.ReaugReport) {
	res.ReaugAttempted += rep.Attempted
	res.ReaugRestored += rep.Restored
	res.ReaugDegraded += rep.Degraded
	res.ReaugLost += rep.Lost
	if rep.Attempted > 0 {
		res.ChaosLines = append(res.ChaosLines, fmt.Sprintf("wave=%d reaug attempted=%d restored=%d degraded=%d retrying=%d lost=%d",
			w, rep.Attempted, rep.Restored, rep.Degraded, rep.Retrying, rep.Lost))
	}
}

// drain settles the re-augmentation queue after the last wave, flushing every
// retry through to restored, degraded, or lost; settle round i is logged as
// wave lastWave+1+i.
func (sched chaosSchedule) drain(svc *serve.Service, res *Result, lastWave int) {
	for i, rep := range svc.SettleReaug() {
		recordReaug(res, lastWave+1+i, rep)
	}
}
