package loadgen

import (
	"errors"
	"fmt"

	"repro/internal/serve"
)

// ReplayConfig shapes one trace replay.
type ReplayConfig struct {
	// WaveSize bounds the in-flight submissions before the driver waits for
	// answers, mirroring the generator's wave pacing. Default 8.
	WaveSize int
}

// Replay drives a recorded request trace through svc as fast as the service
// absorbs it — recorded timestamps are not replayed, because placements do
// not depend on timing (which is what makes a replay a determinism check).
// Every OpAugment is re-enqueued with its recorded admission sequence (gaps
// included, via Service.AdvanceSeq), and every OpRelease and OpNode health
// transition is re-applied at its recorded point in the stream. Like Run,
// Replay must be the only producer touching svc. With the service configured
// as the recording run's meta header says (same seed, solver, hop bound,
// admission policy, network) and cfg.WaveSize the recording's wave size, the
// replayed placements — and the final state hash — are bit-identical to the
// recorded run's at any worker×batcher combination.
func Replay(svc *serve.Service, ops []serve.TraceOp, cfg ReplayConfig) (*Result, error) {
	if cfg.WaveSize <= 0 {
		cfg.WaveSize = 8
	}
	res := &Result{}

	// The submissions between two flushes are one declared wave, as they were
	// on the recording run: opened by the first enqueue, closed before the
	// first wait.
	var inflight []waveEntry
	var endWave func()
	flush := func() {
		if endWave != nil {
			endWave()
			endWave = nil
		}
		for _, e := range inflight {
			collectEntry(res, e)
		}
		inflight = inflight[:0]
	}
	for i, op := range ops {
		switch op.Op {
		case serve.OpAugment:
			// A sync op was submitted by the recording's producer only after
			// draining everything before it; mirror that on both sides of the
			// submission (see the post-enqueue flush below).
			if op.Sync {
				flush()
			}
			// Reproduce the recorded sequence number exactly: submissions the
			// recording run rejected consumed a sequence without leaving an
			// op, and every per-request seed is a function of the sequence.
			svc.AdvanceSeq(op.Seq - 1)
			if endWave == nil {
				endWave = svc.BeginWave()
			}
			// The recorded run admitted this request; a replay refusal (queue
			// sized differently, draining) is a divergence the caller sees as
			// a non-200 record.
			entry, err := submit(svc, serve.AugmentRequest{
				SFC:         op.SFC,
				Expectation: op.Expectation,
				Source:      op.Source,
				Destination: op.Destination,
				Primaries:   op.Primaries,
				DeadlineMS:  op.DeadlineMS,
				Tenant:      op.Tenant,
				Repair:      op.ID,
			}, op.Seq)
			if err != nil {
				flush()
				return nil, err
			}
			inflight = append(inflight, entry)
			// Sync ops were enqueued alone and waited on by the recording's
			// producer (repairs); batch composition is an input to the
			// solves, so the replay must reproduce that serialization.
			if op.Sync || len(inflight) >= cfg.WaveSize {
				flush()
			}
		case serve.OpRelease:
			// Releases were recorded between waves; drain the in-flight wave
			// so the release lands at the same point in the admission stream.
			flush()
			if _, err := svc.Release(op.ID); err == nil {
				res.Released++
			}
		case serve.OpNode:
			// Node health transitions apply at their recorded stream position.
			// The recording run's repairs were themselves recorded as
			// OpAugment ops naming the session (older builds: an OpRelease
			// and a re-admission), so the replay only re-applies the
			// transition — it must NOT run an audit round of its own.
			flush()
			if nr, err := svc.ApplyHealth(op.ID, op.Health, "trace replay"); err == nil {
				res.NodeEvents++
				res.InstancesDestroyed += nr.InstancesDestroyed
			}
		default:
			return nil, fmt.Errorf("loadgen: unexpected trace op %q at index %d", op.Op, i)
		}
	}
	flush()
	return res, nil
}

// Combinations are the (workers, batchers) counts a determinism check runs
// at: serial and parallel solving, with one batch and with four between
// dispatch and answer.
var Combinations = []struct{ Workers, Batchers int }{{1, 1}, {1, 4}, {8, 1}, {8, 4}}

// VerifyReplay replays ops in waves of waveSize through one fresh service per
// combination of Combinations, built by newService, and returns an error
// unless every replay produces the placement log of the first and — when
// eof is not nil — ends in the state hash, placement count and epoch the
// trailer records. It returns the first replay's result.
func VerifyReplay(ops []serve.TraceOp, eof *serve.TraceOp, waveSize int,
	newService func(workers, batchers int) (*serve.Service, error)) (*Result, error) {
	var ref *Result
	for _, c := range Combinations {
		run := fmt.Sprintf("workers=%d batchers=%d", c.Workers, c.Batchers)
		svc, err := newService(c.Workers, c.Batchers)
		if err != nil {
			return nil, err
		}
		res, err := Replay(svc, ops, ReplayConfig{WaveSize: waveSize})
		err = errors.Join(err, svc.Close())
		st := svc.State()
		switch hash := fmt.Sprintf("%016x", st.Hash()); {
		case err != nil:
			return nil, fmt.Errorf("%s: %w", run, err)
		case eof != nil && (hash != eof.Hash || st.PlacedCount() != eof.Placed || st.Epoch() != eof.Epoch):
			return nil, fmt.Errorf("%s: replay ends at hash=%s placed=%d epoch=%d, recorded hash=%s placed=%d epoch=%d",
				run, hash, st.PlacedCount(), st.Epoch(), eof.Hash, eof.Placed, eof.Epoch)
		case ref == nil:
			ref = res
		case res.PlacementLog() != ref.PlacementLog():
			return nil, fmt.Errorf("%s: placement log differs from workers=%d batchers=%d",
				run, Combinations[0].Workers, Combinations[0].Batchers)
		}
	}
	return ref, nil
}
