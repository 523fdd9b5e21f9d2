package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve/watchdog"
)

// flakySolver serves with the Failsafe chain until failing is set, then
// fails every solve.
func flakySolver(failing *atomic.Bool) core.Solver {
	failsafe, _ := core.Get("Failsafe")
	return core.NewSolverFunc("Flaky", func(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
		if failing.Load() {
			return nil, errors.New("induced solver failure")
		}
		return failsafe.Solve(inst, rng)
	})
}

// sessionAlerts returns every active session alert's level and value, by ID.
func sessionAlerts(svc *Service) map[int]string {
	out := make(map[int]string)
	for _, a := range svc.Alerter().Active() {
		if a.Key.Kind == watchdog.KindSession {
			out[a.Key.ID] = fmt.Sprintf("%s u=%v", a.Level, a.Value)
		}
	}
	return out
}

// TestRestoreAfterFailedRepairKeepsSession restarts a service after a repair
// round in which every attempt failed. The restored service must hold what
// the live one held: the same sessions, the same sessions awaiting repair
// and the same session alerts. A service that released a failed session
// before re-admitting it lost all three on such a restart: the release was
// journaled, the pending re-admission was not.
func TestRestoreAfterFailedRepairKeepsSession(t *testing.T) {
	var failing atomic.Bool
	opts := Options{Workers: 1, Seed: 17, Solver: flakySolver(&failing), WALDir: t.TempDir(), WALSync: "none"}
	svc, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := admitN(t, svc, 12, 41)
	nr, err := svc.ApplyHealth(hostingNode(t, svc, ids), HealthDown, "crash")
	if err != nil {
		t.Fatal(err)
	}
	if nr.ReaugQueued == 0 {
		t.Fatal("the failure queued no session: the test needs one")
	}
	failing.Store(true)
	if rep := svc.AuditOnce(); rep.Attempted != nr.ReaugQueued || rep.Retrying != rep.Attempted {
		t.Fatalf("the round attempted %d and left %d retrying; %d were queued", rep.Attempted, rep.Retrying, nr.ReaugQueued)
	}
	live := fmt.Sprint(svc.State().PlacementIDs(), queuedReaug(svc), svc.ReaugPending(), sessionAlerts(svc))
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(testNetwork(1000), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := fmt.Sprint(svc2.State().PlacementIDs(), queuedReaug(svc2), svc2.ReaugPending(), sessionAlerts(svc2)); got != live {
		t.Fatalf("restored sessions, queue, pending count and alerts\n  %s\nthe live process held\n  %s", got, live)
	}
}

// recordsDigest renders an epoch's hash, sequence and every record field a
// repair writes, exactly (reliabilities and shares by their bits).
func recordsDigest(e *epochLedger) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hash=%016x epoch=%d", e.hash(), e.seq)
	for _, p := range e.recs {
		fmt.Fprintf(&b, " [%d %v %v %x met=%v failed=%v", p.ID, p.Primaries, p.Secondaries,
			math.Float64bits(p.Reliability), p.Met, p.Failed)
		for _, v := range sortedNodes(p.PerNode) {
			fmt.Fprintf(&b, " %d:%x", v, math.Float64bits(p.PerNode[v]))
		}
		b.WriteString("]")
	}
	return b.String()
}

// repairKillEnv carries "dir:k" to the helper TestRepairKillRestore starts:
// the WAL directory and the repair solve to die in.
const repairKillEnv = "SERVE_REPAIR_KILL_HELPER"

// TestRepairKillRestore kills a process at every WAL stage of a repair
// round, the way TestKillRestore in loadgen kills one after a stream: a
// child — this test binary, re-executed — admits sessions into a WAL, fails
// a node and runs one repair round, and SIGKILLs itself in its k-th repair
// solve (after k−1 repairs were journaled) or, once k passes the round's
// repairs, after the round. Before dying it prints its live records. The
// parent restores from the directory and must find exactly those records.
func TestRepairKillRestore(t *testing.T) {
	if spec := os.Getenv(repairKillEnv); spec != "" {
		repairKillHelper(t, spec)
	}
	line := regexp.MustCompile(`(killed|done) (hash=.*)`)
	for k := 1; ; k++ {
		if k > 32 {
			t.Fatal("the repair round never completed in 32 kill stages")
		}
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestRepairKillRestore$")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", repairKillEnv, dir, k))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("stage %d: helper did not die of SIGKILL: %v\nstdout: %s\nstderr: %s", k, err, &stdout, &stderr)
		}
		m := line.FindStringSubmatch(stdout.String())
		if m == nil {
			t.Fatalf("stage %d: helper printed no records\nstdout: %s\nstderr: %s", k, &stdout, &stderr)
		}
		st, err := NewStateFromWAL(testNetwork(1000), dir)
		if err != nil {
			t.Fatalf("stage %d: %v", k, err)
		}
		if got := recordsDigest(st.pin()); got != m[2] {
			t.Fatalf("stage %d (%s): restored\n  %s\nthe killed process held\n  %s", k, m[1], got, m[2])
		}
		if m[1] == "done" {
			if k < 3 {
				t.Fatalf("the round repaired %d sessions; the test needs two or more", k-1)
			}
			return
		}
	}
}

// repairKillHelper is the child half of TestRepairKillRestore; it never
// returns.
func repairKillHelper(t *testing.T, spec string) {
	dir, stage, _ := strings.Cut(spec, ":")
	k, err := strconv.Atoi(stage)
	if err != nil {
		t.Fatal(err)
	}
	var svc *Service
	die := func(how string) {
		fmt.Printf("%s %s\n", how, recordsDigest(svc.state.pin()))
		os.Stdout.Sync()
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {}
	}
	failsafe, _ := core.Get("Failsafe")
	var armed atomic.Bool
	var solves atomic.Int64
	killer := core.NewSolverFunc("KillAt", func(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
		if armed.Load() && solves.Add(1) == int64(k) {
			die("killed")
		}
		return failsafe.Solve(inst, rng)
	})
	svc, err = New(testNetwork(1000), Options{Workers: 1, Seed: 17, Solver: killer, WALDir: dir, WALSync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	ids := admitN(t, svc, 12, 41)
	if _, err := svc.ApplyHealth(hostingNode(t, svc, ids), HealthDown, "crash"); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	svc.AuditOnce()
	die("done")
}

// TestReleaseRacingRepairInstallsNothing releases a session while its repair
// waits in the queue: the batch that executes the repair finds the record
// gone and installs nothing for it — no resurrected record, no capacity
// charged — and the session's alert stays cleared.
func TestReleaseRacingRepairInstallsNothing(t *testing.T) {
	svc, err := New(testNetwork(1000), Options{Workers: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ids := admitN(t, svc, 12, 41)
	if _, err := svc.ApplyHealth(hostingNode(t, svc, ids), HealthDown, "crash"); err != nil {
		t.Fatal(err)
	}
	queued := queuedReaug(svc)
	if len(queued) == 0 {
		t.Fatal("the failure queued no session: the test needs one")
	}
	victim := queued[0] // the round repairs in ascending ID order
	placed := svc.State().PlacedCount()

	end := svc.BeginWave() // the batcher pops nothing until end
	round := make(chan ReaugReport)
	go func() { round <- svc.AuditOnce() }()
	for deadline := time.Now().Add(5 * time.Second); svc.queue.Len() == 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the round enqueued no repair")
		}
	}
	if _, err := svc.Release(victim); err != nil {
		t.Fatal(err)
	}
	end()
	rep := <-round

	if rep.Attempted != len(queued) || rep.Lost != 0 {
		t.Fatalf("round %+v; %d sessions were queued", rep, len(queued))
	}
	if _, live := svc.State().Placement(victim); live {
		t.Fatalf("the repair of released session %d installed a record", victim)
	}
	if lvl := svc.Alerter().Level(watchdog.Key{Kind: watchdog.KindSession, ID: victim}); lvl != watchdog.OK {
		t.Fatalf("released session %d alerted at %v", victim, lvl)
	}
	if got := svc.State().PlacedCount(); got != placed-1 {
		t.Fatalf("%d placements after the round, %d before the release", got, placed)
	}
	if err := conservationErr(svc.state, svc.state.pin()); err != nil {
		t.Fatal(err)
	}
}
