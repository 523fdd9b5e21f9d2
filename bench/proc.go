package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what every run needs from its surroundings: where the binaries
// under test are, where scratch files go, and the context that a signal
// cancels (which kills every child).
type env struct {
	ctx    context.Context
	binDir string
	runDir string // os.MkdirTemp under the work dir; removed when the run ends
}

// command builds a child that dies with the harness: the context kills it on
// cancel, Pdeathsig covers a harness that is itself SIGKILLed.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.binDir, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// server is one running augmentd.
type server struct {
	cmd     *exec.Cmd
	addr    string
	obsAddr string // empty unless started with obs
	stderr  *bytes.Buffer
	exited  chan error    // receives cmd.Wait's result once
	setup   time.Duration // exec → first 200 from /v1/healthz
}

// startServer execs augmentd on a free port and waits for /v1/healthz.
// Logging is at error level and the session alert thresholds are parked at
// a factor no reliability can fall below, so alert evaluation and log
// formatting are not what is timed.
func (e *env) startServer(scenario string, hopBound int, withObs bool, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-scenario", scenario, "-addr", addr, "-l", strconv.Itoa(hopBound),
		"-log-level", "error", "-alert-warn", "1e-9", "-alert-crit", "1e-9",
	}
	srv := &server{addr: addr, stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	if withObs {
		if srv.obsAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-obs-addr", srv.obsAddr)
	}
	srv.cmd = e.command("augmentd", append(args, extra...)...)
	srv.cmd.Stderr = srv.stderr
	start := time.Now()
	if err := srv.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { srv.exited <- srv.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-srv.exited:
			return nil, fmt.Errorf("augmentd exited during start-up: %v\n%s", err, srv.stderr)
		default:
		}
		if time.Since(start) > 10*time.Second {
			srv.kill()
			return nil, fmt.Errorf("augmentd did not become healthy on %s\n%s", addr, srv.stderr)
		}
		time.Sleep(200 * time.Microsecond)
	}
	srv.setup = time.Since(start)
	client.CloseIdleConnections()
	return srv, nil
}

// stop drains the server with SIGTERM and waits for a clean exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := <-s.exited; err != nil {
		return fmt.Errorf("augmentd exit: %w\n%s", err, s.stderr)
	}
	return nil
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// cpuSeconds reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, so the 12th and 13th after ") ".
	_, rest, ok := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc/%d/stat times", pid)
	}
	const clkTck = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return (utime + stime) / clkTck, nil
}

// peakRSSMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
