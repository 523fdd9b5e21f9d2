package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fig1Table is one sub-table of the experiments output: a row per SFC
// length, a column per solver.
type fig1Table struct {
	solvers []string
	lengths []int
	cell    map[string]map[int]float64 // solver → length → value
}

// Section headings of `experiments -fig 1` the harness reads.
const (
	headReliability = "(a) achieved SFC reliability"
	headRuntime     = "(c) running time"
)

// parseFig1 extracts the sub-table under the heading that starts with head.
func parseFig1(out, head string) (*fig1Table, error) {
	_, rest, ok := strings.Cut(out, "\n"+head)
	if !ok {
		return nil, fmt.Errorf("experiments output has no %q table", head)
	}
	lines := strings.Split(rest, "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("%q table is empty", head)
	}
	header := strings.Fields(lines[1])
	if len(header) < 3 || header[0] != "SFC" || header[1] != "length" {
		return nil, fmt.Errorf("%q table header %q", head, lines[1])
	}
	t := &fig1Table{solvers: header[2:], cell: make(map[string]map[int]float64)}
	for _, sv := range t.solvers {
		t.cell[sv] = make(map[int]float64)
	}
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			break
		}
		if len(f) != len(t.solvers)+1 {
			return nil, fmt.Errorf("%q table row %q", head, line)
		}
		length, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("%q table row %q: %w", head, line, err)
		}
		t.lengths = append(t.lengths, length)
		for i, sv := range t.solvers {
			v, err := strconv.ParseFloat(f[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("%q table row %q: %w", head, line, err)
			}
			t.cell[sv][length] = v
		}
	}
	if len(t.lengths) == 0 {
		return nil, fmt.Errorf("%q table has no rows", head)
	}
	return t, nil
}

// rows returns each length's cells summed over the solvers.
func (t *fig1Table) rows() []float64 {
	vs := make([]float64, len(t.lengths))
	for i, l := range t.lengths {
		for _, sv := range t.solvers {
			vs[i] += t.cell[sv][l]
		}
	}
	return vs
}

func (t *fig1Table) all() []float64 {
	var vs []float64
	for _, sv := range t.solvers {
		for _, l := range t.lengths {
			vs = append(vs, t.cell[sv][l])
		}
	}
	return vs
}

// sweep is one finished `experiments -fig 1` subprocess.
type sweep struct {
	wallS     float64
	cpuS      float64
	peakRSSMB float64
	tables    string // stdout up to the running-time table: must repeat byte for byte
	rel, ms   *fig1Table
	manifest  counters // registry snapshot from -run-manifest, when asked for
}

// runSweep runs the sweep once. With manifest it also asks for the
// run-manifest and flattens its registry snapshot.
func (e *env) runSweep(trials int, solvers string, manifest bool) (*sweep, error) {
	args := []string{"-fig", "1", "-trials", strconv.Itoa(trials), "-seed", strconv.Itoa(fig1Seed), "-q", "-log-level", "error"}
	if solvers != "" {
		args = append(args, "-solvers", solvers)
	}
	manifestPath := filepath.Join(e.runDir, "manifest.json")
	if manifest {
		args = append(args, "-run-manifest", manifestPath)
	}
	cmd := e.command("experiments", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("experiments %s: %w\n%s", strings.Join(args, " "), err, &stderr)
	}
	sw := &sweep{wallS: time.Since(t0).Seconds()}
	sw.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		sw.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	out := stdout.String()
	sw.tables, _, _ = strings.Cut(out, "\n"+headRuntime)
	var err error
	if sw.rel, err = parseFig1(out, headReliability); err != nil {
		return nil, err
	}
	if sw.ms, err = parseFig1(out, headRuntime); err != nil {
		return nil, err
	}
	if manifest {
		raw, err := os.ReadFile(manifestPath)
		if err != nil {
			return nil, err
		}
		var v debugVars
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("run manifest: %w", err)
		}
		sw.manifest = v.flatten()
	}
	return sw, nil
}

// minSweeps is the fewest sweeps a repetition runs, however short --seconds.
const minSweeps = 3

// offlineRun is one repetition of the offline workload.
type offlineRun struct {
	setupS []float64
	sweeps []*sweep
	solves int // trial-solves per sweep: lengths × solvers × trials
}

// runOffline times the start-up path (`-trials 1 -solvers Greedy`:
// everything but solving), then repeats the fixed sweep until `seconds` have
// passed — at least minSweeps times, so every running-time cell has its
// draws and the repeat-exactly oracle has something to compare.
func runOffline(e *env, s *spec, seconds float64, manifest bool) (*offlineRun, error) {
	run := &offlineRun{}
	for i := 0; i < setupStarts; i++ {
		sw, err := e.runSweep(1, "Greedy", false)
		if err != nil {
			return nil, err
		}
		run.setupS = append(run.setupS, sw.wallS)
	}
	begin := time.Now()
	for len(run.sweeps) < minSweeps || time.Since(begin).Seconds() < seconds {
		sw, err := e.runSweep(s.trials, "", manifest)
		if err != nil {
			return nil, err
		}
		run.sweeps = append(run.sweeps, sw)
	}
	first := run.sweeps[0]
	run.solves = len(first.rel.lengths) * len(first.rel.solvers) * s.trials
	for i, sw := range run.sweeps[1:] {
		if sw.tables != first.tables {
			return nil, fmt.Errorf("%s: sweep %d printed different tables than sweep 1", s.name, i+2)
		}
	}
	for _, l := range first.rel.lengths {
		ilp, heur := first.rel.cell["ILP"][l], first.rel.cell["Heuristic"][l]
		if ilp < heur {
			return nil, fmt.Errorf("%s: at SFC length %d ILP reliability %.4f is below Heuristic %.4f", s.name, l, ilp, heur)
		}
	}
	return run, nil
}
