package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// harness is the verification side of the command: the selftest, the trace
// replay and the kill and chaos drills. All of them are one loop — the same
// load driven through a fresh service at every (workers, batchers)
// combination, one result line per run (throughput and latency quantiles
// are for the eye; measured performance is the benchmark's job), with the
// placement logs required to agree — around a drive.
type harness struct {
	cfg            *config
	stdout, stderr io.Writer
}

// drive is what differs between a selftest and a replay.
type drive struct {
	// name prefixes every line the loop prints: "selftest" or "replay".
	name string
	// load drives one fresh service to completion.
	load func(svc *serve.Service) (*loadgen.Result, error)
	// check applies the drive's own checks to a finished run (named, for
	// messages, by its "workers=W batchers=B"), reporting whether they held.
	check func(run string, svc *serve.Service, res *loadgen.Result) bool
}

// combinations runs d at every (workers, batchers) combination against
// identically seeded fresh services and pins that the placement and chaos
// logs agree across them. With -wal-dir every combination journals into its
// own directory under it, whose replay must rebuild the run's exact final
// state; -record records the first combination's request trace; -kill stops
// after the first combination, prints the durable state line and SIGKILLs the
// process, leaving the root log for -restore-only to verify. It returns the
// runs' results, or the process exit code when the verdict is not a pass.
func (h *harness) combinations(d drive) ([]*loadgen.Result, int) {
	workerCounts, err := parseCounts(h.cfg.workerSpec)
	if err != nil {
		fmt.Fprintf(h.stderr, "augmentd: bad -selftest-workers %q\n", h.cfg.workerSpec)
		return nil, 2
	}
	batcherCounts, err := parseCounts(h.cfg.batcherSpec)
	if err != nil {
		fmt.Fprintf(h.stderr, "augmentd: bad -selftest-batchers %q\n", h.cfg.batcherSpec)
		return nil, 2
	}
	var refRun, refLog, refChaos string
	var runs []*loadgen.Result
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(h.stderr, "augmentd: "+d.name+" "+format+"\n", args...)
		ok = false
	}
combos:
	for _, w := range workerCounts {
		for _, b := range batcherCounts {
			run := fmt.Sprintf("workers=%d batchers=%d", w, b)
			opt := h.cfg.opt
			opt.Workers, opt.Batchers = w, b
			if opt.WALDir != "" && !h.cfg.kill {
				opt.WALDir = filepath.Join(opt.WALDir, fmt.Sprintf("run-w%d-b%d", w, b))
			}
			if len(runs) > 0 {
				opt.RecordPath = ""
			}
			svc, code := newService(h.cfg, h.stderr, opt)
			if svc == nil {
				return nil, code
			}
			res, err := d.load(svc)
			if err != nil {
				fmt.Fprintf(h.stderr, "augmentd: %s %s: %v\n", d.name, run, err)
				return nil, 1
			}
			svc.Drain()
			st := svc.State()
			hash, placed := st.Hash(), st.PlacedCount()
			fmt.Fprintf(h.stdout, "%s %s: %d requests in %v (%.0f req/s), admitted=%d infeasible=%d rejected=%d (quota=%d) shed=%d deadline=%d released=%d hash=%016x placed=%d %s\n",
				d.name, run, len(res.Records), res.Elapsed.Round(time.Millisecond), res.Throughput,
				res.Admitted, res.Infeasible, res.Rejected, res.Quota, res.Shed, res.Deadline, res.Released,
				hash, placed, latencyQuantiles(res.Records))
			if !d.check(run, svc, res) {
				ok = false
			}
			if opt.WALDir != "" {
				// Kill/restore contract, in-process: replaying the run's WAL
				// against a same-seed network reproduces the exact state —
				// including which cloudlets were down at the cut.
				if net, err := h.cfg.network(); err != nil {
					fail("%s: %v", run, err)
				} else if re, err := serve.NewStateFromWAL(net, opt.WALDir); err != nil {
					fail("%s: WAL replay: %v", run, err)
				} else if re.Hash() != hash || re.PlacedCount() != placed {
					fail("%s: WAL replay state hash=%016x placed=%d, live hash=%016x placed=%d",
						run, re.Hash(), re.PlacedCount(), hash, placed)
				} else if fmt.Sprint(re.DownNodes()) != fmt.Sprint(st.DownNodes()) {
					fail("%s: WAL replay down set %v, live %v", run, re.DownNodes(), st.DownNodes())
				}
			}
			log, chaos := res.PlacementLog(), res.ChaosLog()
			if len(runs) == 0 {
				refRun, refLog, refChaos = run, log, chaos
			} else if log != refLog {
				fail("DETERMINISM FAILURE: %s placement log differs from %s\n%s", run, refRun, firstDiff(refLog, log))
			} else if chaos != refChaos {
				fail("DETERMINISM FAILURE: %s chaos log differs from %s\n%s", run, refRun, firstDiff(refChaos, chaos))
			}
			runs = append(runs, res)
			if err := svc.Close(); err != nil {
				fail("close: %v", err)
			}
			if h.cfg.kill {
				if ok {
					fmt.Fprintf(h.stdout, "%s state: hash=%016x placed=%d\n", d.name, hash, placed)
					os.Stdout.Sync()
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
				break combos
			}
		}
	}
	if !ok {
		fmt.Fprintf(h.stdout, "%s FAILED\n", d.name)
		return nil, 1
	}
	return runs, 0
}

// restoreOnly replays the WAL directory against the configured network and
// prints the state it holds — the out-of-process half of the kill drill.
// Returns the exit code.
func (h *harness) restoreOnly() int {
	net, err := h.cfg.network()
	if err != nil {
		fmt.Fprintf(h.stderr, "augmentd: %v\n", err)
		return 1
	}
	st, err := serve.NewStateFromWAL(net, h.cfg.opt.WALDir)
	if err != nil {
		fmt.Fprintf(h.stderr, "augmentd: restore: %v\n", err)
		return 1
	}
	printRestored(h.stdout, st)
	return 0
}

// selftest runs the deterministic load generator at every combination and
// additionally pins that nothing was rejected below the queue bound and —
// with chaos enabled — zero silent SLO violations. Returns the exit code.
func (h *harness) selftest() int {
	c := h.cfg
	if c.opt.WALDir != "" {
		// A service boots from what its WAL directory holds, so a run on a
		// used directory would continue that history, not start the stream's.
		if entries, err := os.ReadDir(c.opt.WALDir); err == nil && len(entries) > 0 {
			fmt.Fprintf(h.stderr, "augmentd: selftest needs an empty -wal-dir; %s holds %d entries\n", c.opt.WALDir, len(entries))
			return 2
		}
	}
	runs, code := h.combinations(drive{
		name: "selftest",
		load: func(svc *serve.Service) (*loadgen.Result, error) { return loadgen.Run(svc, c.load) },
		check: func(run string, svc *serve.Service, res *loadgen.Result) bool {
			ok := true
			// Quota denials are intentional admission economics, not queue
			// overflow, and under fair or knapsack admission a wave may
			// overflow one tenant's fair-share sub-queue while the global
			// queue still has room — those rejections are the discipline
			// working, and the placement-log comparison still pins them
			// bit-identical across combinations. The strict zero-drop bound
			// is a fifo-admission invariant.
			if c.opt.Admission == serve.AdmissionFIFO && res.Rejected-res.Quota != 0 {
				fmt.Fprintf(h.stderr, "augmentd: selftest %s: %d requests rejected below the queue bound\n", run, res.Rejected-res.Quota)
				ok = false
			}
			if len(c.opt.Tenants) > 0 {
				for _, row := range svc.TenantStats().Tenants {
					fmt.Fprintf(h.stdout, "tenant %s %s: weight=%g admitted=%d rejected_quota=%d rejected_queue=%d shed=%d infeasible=%d weighted_log_gain=%.6f\n",
						row.Name, run, row.Weight, row.Admitted, row.RejectedQuota,
						row.RejectedQueue, row.Shed, row.Infeasible, row.WeightedLogGain)
				}
			}
			if c.load.Chaos.Enabled {
				fmt.Fprintf(h.stdout, "chaos %s: events=%d destroyed=%d reaug attempted=%d restored=%d degraded=%d lost=%d pending=%d\n",
					run, res.NodeEvents, res.InstancesDestroyed, res.ReaugAttempted,
					res.ReaugRestored, res.ReaugDegraded, res.ReaugLost, svc.ReaugPending())
				// The self-healing contract: every placement still below its
				// expectation must carry an active alert — no silent violations.
				if silent := svc.SilentViolations(); len(silent) > 0 {
					fmt.Fprintf(h.stderr, "augmentd: selftest %s: %d SILENT SLO violations (sessions %v)\n", run, len(silent), silent)
					ok = false
				}
			}
			return ok
		},
	})
	if runs == nil {
		return code
	}
	if r := runs[0]; c.load.Chaos.Enabled {
		fmt.Fprintf(h.stdout, "chaos drill OK: %d node events, reaug attempted=%d restored=%d degraded=%d lost=%d, zero silent violations\n",
			r.NodeEvents, r.ReaugAttempted, r.ReaugRestored, r.ReaugDegraded, r.ReaugLost)
	}
	fmt.Fprintf(h.stdout, "selftest OK: %d combinations agree on %d placements\n", len(runs), runs[0].Admitted)
	return 0
}

// replay drives a recorded request trace through fresh services at every
// combination and additionally pins that each reproduces the trace's EOF
// state hash and placement count. Returns the exit code.
func (h *harness) replay() int {
	c := h.cfg
	meta, ops, eof, err := serve.ReadTrace(c.replay)
	if err != nil {
		fmt.Fprintf(h.stderr, "augmentd: -replay: %v\n", err)
		return 1
	}
	// The trace header pins the recording run's determinism inputs; replaying
	// under different ones cannot reproduce it, so fail fast instead of
	// reporting a confusing divergence.
	mismatch := func(what string, recorded, now any) int {
		fmt.Fprintf(h.stderr, "augmentd: -replay: trace was recorded with %s %v, not %v\n", what, recorded, now)
		return 2
	}
	switch tenants := serve.NormalizedTenants(c.opt.Tenants); {
	case meta.Seed != c.opt.Seed:
		return mismatch("-seed", meta.Seed, c.opt.Seed)
	case meta.Solver != c.opt.Solver.Name():
		return mismatch("solver", meta.Solver, c.opt.Solver.Name())
	case meta.HopBound != c.opt.HopBound:
		return mismatch("-l", meta.HopBound, c.opt.HopBound)
	case meta.AdmitPolicy != c.opt.AdmitPolicy:
		return mismatch("-admit", meta.AdmitPolicy, c.opt.AdmitPolicy)
	// Quota and fair-queueing decisions are part of the admission sequence a
	// replay must reproduce, so the discipline and tenant set are pinned too.
	// Pre-tenant traces omit both fields; they replay under any setting.
	case meta.Admission != "" && meta.Admission != c.opt.Admission:
		return mismatch("-admission", meta.Admission, c.opt.Admission)
	case meta.Tenants != "" && meta.Tenants != tenants:
		return mismatch("tenants", meta.Tenants, tenants)
	}
	augments := 0
	for _, op := range ops {
		if op.Op == serve.OpAugment {
			augments++
		}
	}
	fmt.Fprintf(h.stdout, "replaying %s: %d ops (%d augments), recorded", c.replay, len(ops), augments)
	if eof != nil {
		fmt.Fprintf(h.stdout, " hash=%s placed=%d\n", eof.Hash, eof.Placed)
	} else {
		fmt.Fprintln(h.stdout, " without EOF trailer (recording was cut short; state check skipped)")
	}
	runs, code := h.combinations(drive{
		name: "replay",
		load: func(svc *serve.Service) (*loadgen.Result, error) {
			return loadgen.Replay(svc, ops, loadgen.ReplayConfig{WaveSize: c.opt.QueueDepth})
		},
		check: func(run string, svc *serve.Service, res *loadgen.Result) bool {
			hash, placed := fmt.Sprintf("%016x", svc.State().Hash()), svc.State().PlacedCount()
			if eof != nil && (hash != eof.Hash || placed != eof.Placed) {
				fmt.Fprintf(h.stderr, "augmentd: replay DIVERGENCE %s: hash=%s placed=%d, recorded hash=%s placed=%d\n",
					run, hash, placed, eof.Hash, eof.Placed)
				return false
			}
			return true
		},
	})
	if runs == nil {
		return code
	}
	fmt.Fprintf(h.stdout, "replay OK: %d combinations reproduced %d placements bit-identically\n", len(runs), runs[0].Admitted)
	return 0
}

// latencyQuantiles renders the exact p50/p99/p999 of the answered requests'
// end-to-end latencies: the nearest-rank order statistics of every recorded
// latency, however many requests the run made.
func latencyQuantiles(records []loadgen.Record) string {
	var lat []time.Duration
	for _, r := range records {
		if r.Latency > 0 {
			lat = append(lat, r.Latency)
		}
	}
	slices.Sort(lat)
	q := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := max(int(math.Ceil(p*float64(len(lat))))-1, 0)
		return lat[i].Round(time.Microsecond)
	}
	return fmt.Sprintf("p50=%v p99=%v p999=%v", q(0.5), q(0.99), q(0.999))
}

// parseCounts parses a comma-separated list of positive ints.
func parseCounts(spec string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad count %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// firstDiff renders the first differing line of two placement logs.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("  line %d:\n  - %s\n  + %s\n", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("  log lengths differ: %d vs %d lines\n", len(al), len(bl))
}
