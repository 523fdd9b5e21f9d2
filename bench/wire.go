package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"repro/internal/mec"
	"repro/internal/serve"
)

// servingRun is what one measured phase of a serving workload yields,
// wire or in-process.
type servingRun struct {
	setupS    []float64 // every start-up timed during the run
	elapsedS  float64   // measured phase, releases included
	augLatMS  []float64 // client-observed, measured phase only
	relLatMS  []float64
	augments  int // attempted in the measured phase
	releases  int
	failed    int // operations not answered 200
	met       int // 200s with met_expectation
	admitted  int
	relSum    float64 // Σ reliability of admitted requests
	cpuS      float64 // server user+sys CPU over the measured phase
	peakRSSMB float64

	// Traced runs only.
	traced   []tracedRequest
	counters counters // registry + memstats delta over the measured phase
	restoreS float64  // wire-durable: augmentd -restore-only wall time
	walDir   string   // wire-durable: kept until the run dir is removed
	health   healthTimes
}

// setupStarts is how many start-ups each run times; setup_s is their median.
const setupStarts = 21

// client is one closed-loop connection: it sends its next request only after
// the previous answer's body has been read.
type client struct {
	http   *http.Client
	base   string
	query  string // "?trace=1" on traced runs
	stream *stream
	oracle *oracle
	window int

	live []session
	run  servingRun
	err  error
}

func newClient(s *spec, net *mec.Network, seed int64, idx int, addr string, traced bool) *client {
	c := &client{
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
		base:   "http://" + addr,
		stream: s.newStream(net, seed, idx),
		oracle: newOracle(net, s.hopBound),
		window: s.window,
	}
	if traced {
		c.query = "?trace=1"
	}
	return c
}

// post sends one JSON body and returns the status, the full response body
// and the send → body-read latency.
func (c *client) post(path string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, time.Since(start), err
}

// augment sends the stream's next request; measured says whether the
// operation counts (warm-up operations are checked but not recorded).
func (c *client) augment(measured bool) error {
	ar := c.stream.next()
	status, raw, lat, err := c.post("/v1/augment"+c.query, body(ar))
	if err != nil {
		return err
	}
	if measured {
		c.run.augments++
		c.run.augLatMS = append(c.run.augLatMS, lat.Seconds()*1e3)
	}
	if status != http.StatusOK {
		if measured {
			c.run.failed++
		}
		return nil
	}
	var resp serve.AugmentResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("augment answer: %w", err)
	}
	if err := c.oracle.check(ar.SFC, &resp); err != nil {
		return err
	}
	c.live = append(c.live, sessionOf(ar.SFC, &resp))
	if measured {
		c.run.admitted++
		c.run.relSum += resp.Reliability
		if resp.MetExpectation {
			c.run.met++
		}
		if resp.Trace != nil {
			c.run.traced = append(c.run.traced, tracedRequest{clientUS: float64(lat.Nanoseconds()) / 1e3, snap: resp.Trace})
		}
	}
	return nil
}

// releaseOldest tears down the connection's oldest live session.
func (c *client) releaseOldest(measured bool) error {
	if len(c.live) == 0 {
		return nil
	}
	id := c.live[0].id
	c.live = c.live[1:]
	status, _, lat, err := c.post("/v1/release", []byte(fmt.Sprintf(`{"id":%d}`, id)))
	if err != nil {
		return err
	}
	if measured {
		c.run.releases++
		c.run.relLatMS = append(c.run.relLatMS, lat.Seconds()*1e3)
		if status != http.StatusOK {
			c.run.failed++
		}
	}
	return nil
}

// loop is the client's whole life: fill the live window (warm-up), meet the
// other clients at the barrier, then pair every augment with a release of
// the oldest session until the deadline.
func (c *client) loop(ready *sync.WaitGroup, start <-chan time.Time, seconds float64) {
	defer c.http.CloseIdleConnections()
	for len(c.live) < c.window && c.err == nil {
		before := len(c.live)
		c.err = c.augment(false)
		if c.err == nil && len(c.live) == before {
			c.err = fmt.Errorf("warm-up augment was refused")
		}
	}
	ready.Done()
	begin := <-start
	if c.err != nil {
		return
	}
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		if c.err = c.augment(true); c.err != nil {
			return
		}
		if c.err = c.releaseOldest(true); c.err != nil {
			return
		}
	}
}

var stateLine = regexp.MustCompile(`hash=([0-9a-f]{16}) placed=(\d+)`)

// runWire runs one repetition of a wire workload: start-ups for setup_s, a
// fresh server, two closed-loop clients for `seconds`, then the end-of-run
// oracles. traced turns on ?trace=1 and -obs-addr.
func runWire(e *env, s *spec, seed int64, seconds float64, traced bool) (*servingRun, error) {
	net := s.network()
	scenario, err := writeScenario(e.runDir, net)
	if err != nil {
		return nil, err
	}
	args := append([]string(nil), s.serverArgs...)
	walDir := ""
	var setups []float64
	var srv *server
	for i := 0; i < setupStarts; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		startArgs := args
		if s.durable {
			if walDir, err = os.MkdirTemp(e.runDir, "wal-*"); err != nil {
				return nil, err
			}
			startArgs = append(startArgs, "-wal-dir", walDir)
		}
		if srv, err = e.startServer(scenario, s.hopBound, traced, startArgs...); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	clients := make([]*client, conns)
	var ready, done sync.WaitGroup
	start := make(chan time.Time)
	for i := range clients {
		clients[i] = newClient(s, net, seed, i, srv.addr, traced)
		ready.Add(1)
		done.Add(1)
		go func(c *client) {
			defer done.Done()
			c.loop(&ready, start, seconds)
		}(clients[i])
	}
	ready.Wait()
	var before counters
	if traced {
		if before, err = scrape(srv.obsAddr); err != nil {
			return nil, err
		}
	}
	cpu0, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for range clients {
		start <- begin
	}
	done.Wait()
	run := &servingRun{setupS: setups, elapsedS: time.Since(begin).Seconds(), walDir: walDir}
	cpu1, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	run.cpuS = cpu1 - cpu0
	if traced {
		after, err := scrape(srv.obsAddr)
		if err != nil {
			return nil, err
		}
		run.counters = after.since(before)
	}
	var live []session
	for _, c := range clients {
		if c.err != nil {
			return nil, fmt.Errorf("%s client: %w\nserver stderr:\n%s", s.name, c.err, srv.stderr)
		}
		run.augLatMS = append(run.augLatMS, c.run.augLatMS...)
		run.relLatMS = append(run.relLatMS, c.run.relLatMS...)
		run.augments += c.run.augments
		run.releases += c.run.releases
		run.failed += c.run.failed
		run.met += c.run.met
		run.admitted += c.run.admitted
		run.relSum += c.run.relSum
		run.traced = append(run.traced, c.run.traced...)
		live = append(live, c.live...)
	}

	// End-of-repetition oracles: capacity conservation against /v1/state,
	// and for the durable workload WAL restore after a graceful stop.
	var state serve.StateResponse
	resp, err := http.Get("http://" + srv.addr + "/v1/state")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&state)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("/v1/state: %w", err)
	}
	if err := clients[0].oracle.checkLedger(live, state.Cloudlets); err != nil {
		return nil, fmt.Errorf("%s ledger oracle: %w", s.name, err)
	}
	if state.Placed != len(live) {
		return nil, fmt.Errorf("%s: server holds %d placements, clients hold %d", s.name, state.Placed, len(live))
	}
	if run.peakRSSMB, err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	if s.durable {
		t0 := time.Now()
		out, err := e.command("augmentd", "-restore-only", "-wal-dir", walDir, "-scenario", scenario, "-log-level", "error").Output()
		run.restoreS = time.Since(t0).Seconds()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				err = fmt.Errorf("%w\n%s", err, ee.Stderr)
			}
			return nil, fmt.Errorf("restore-only: %w", err)
		}
		m := stateLine.FindSubmatch(out)
		want := fmt.Sprintf("hash=%s placed=%d", state.StateHash, state.Placed)
		if m == nil || string(m[0]) != want {
			return nil, fmt.Errorf("%s restore oracle: restore-only printed %q, last /v1/state was %s (wal %s)",
				s.name, bytes.TrimSpace(out), want, filepath.Base(walDir))
		}
	}
	return run, nil
}
