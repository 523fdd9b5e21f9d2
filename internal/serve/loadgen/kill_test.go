package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"syscall"
	"testing"

	"repro/internal/serve"
)

// killHelperEnv names the WAL directory the kill helper journals into. Only
// TestKillRestore sets it, in the environment of the child it starts.
const killHelperEnv = "LOADGEN_KILL_HELPER_WAL"

// TestKillRestore pins crash-exact recovery across processes. A child — this
// test binary, re-executed — serves augmentd's 128-request generated stream
// on its seed-1 network at 1 worker and 4 batchers into a WAL directory,
// prints its state line once every request is answered, and SIGKILLs itself
// before Close: no clean shutdown, no EOF trailer, no final checkpoint. The
// parent then boots a state from what the directory holds, which must be the
// printed state — and the one the saturated trace, recorded from the same
// stream at 1 worker and 1 batcher, ends in.
func TestKillRestore(t *testing.T) {
	if dir := os.Getenv(killHelperEnv); dir != "" {
		killHelper(dir)
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillRestore$")
	cmd.Env = append(os.Environ(), killHelperEnv+"="+dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("helper did not die of SIGKILL: %v\nstdout: %s\nstderr: %s", err, &stdout, &stderr)
	}
	line := regexp.MustCompile(`hash=[0-9a-f]{16} placed=\d+ epoch=\d+`).FindString(stdout.String())
	if line == "" {
		t.Fatalf("helper printed no state line\nstdout: %s\nstderr: %s", &stdout, &stderr)
	}
	st, err := serve.NewStateFromWAL(augmentdNetwork(), dir)
	if err != nil {
		t.Fatal(err)
	}
	_, _, eof := readTrace(t, "saturated.trace")
	restored := fmt.Sprintf("hash=%016x placed=%d epoch=%d", st.Hash(), st.PlacedCount(), st.Epoch())
	recorded := fmt.Sprintf("hash=%s placed=%d epoch=%d", eof.Hash, eof.Placed, eof.Epoch)
	if restored != line || restored != recorded {
		t.Fatalf("restored %s; killed process printed %s, saturated.trace records %s", restored, line, recorded)
	}
}

// killHelper is the child half of TestKillRestore; it never returns.
func killHelper(dir string) {
	svc, err := serve.New(augmentdNetwork(), serve.Options{
		Workers: 1, Batchers: 4, WALDir: dir, AlertWarnFactor: 1e-9, AlertCritFactor: 1e-9,
	})
	if err == nil {
		_, err = Run(svc, Config{Seed: 1, Requests: 128, WaveSize: 64, ReleaseEvery: 16})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	svc.Drain()
	st := svc.State()
	fmt.Printf("killed at hash=%016x placed=%d epoch=%d\n", st.Hash(), st.PlacedCount(), st.Epoch())
	os.Stdout.Sync()
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {}
}
