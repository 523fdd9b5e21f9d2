package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// suiteReps is how many repetitions every workload gets, interleaved
// round-robin.
const suiteReps = 7

// suiteConfig is one full run of every workload.
type suiteConfig struct {
	ctx     context.Context
	workDir string
	binDir  string
	seed    int64
	seconds float64
}

// series is one end-to-end metric over a workload's repetitions: the
// reported value is the median, with (max−min)/median beside it.
type series struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
	Unit   string    `json:"unit"`
}

// workloadResult is everything the suite learned about one workload.
type workloadResult struct {
	Name      string                  `json:"name"`
	Reps      int                     `json:"reps"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]*series      `json:"end_to_end"` // by gate name; a gate that does not apply is absent
	PerLayer  map[string]metricValue  `json:"per_layer"`
	Samples   map[string]int          `json:"samples"`
	Stages    []stageStats            `json:"stages,omitempty"`
	Probes    map[string]probeSummary `json:"probes,omitempty"`
}

// suiteResult is the one JSON file a suite run writes.
type suiteResult struct {
	Meta      meta              `json:"meta"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}

// meta records where a result came from.
type meta struct {
	When      string `json:"when"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
	TempFS    string `json:"temp_fs"` // filesystem type under the WAL and scenario files
	Commit    string `json:"commit"`
}

// fsNames maps the statfs magic numbers a scratch directory is likely to sit
// on; anything else is reported in hex.
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
}

func collectMeta(ctx context.Context, workDir string) meta {
	m := meta{When: time.Now().UTC().Format(time.RFC3339), NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Kernel: "unknown", TempFS: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	var st syscall.Statfs_t
	if syscall.Statfs(workDir, &st) == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			m.TempFS = name
		} else {
			m.TempFS = fmt.Sprintf("0x%x", st.Type)
		}
	}
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// child runs one repetition as a subprocess of this same binary, exactly as
// the benchmark driver does, so peak memory and registry counters start
// fresh and the suite measures what the driver measures.
func (c suiteConfig) child(s *spec, trace bool) (*runResult, *runDetail, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	detailPath := filepath.Join(c.workDir, fmt.Sprintf("detail-%s.json", s.name))
	defer os.Remove(detailPath)
	t, seconds := "0", c.seconds
	if trace {
		t, seconds = "1", 2*c.seconds // a traced run splits its time into an untraced and a traced half
	}
	cmd := exec.CommandContext(c.ctx, self, "-workload", s.name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t,
		"-workdir", c.workDir, "-bindir", c.binDir, "-detail", detailPath)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d trace %s: %w\n%s", s.name, c.seed, t, err, &stderr)
	}
	res, err := lastLine(out)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.name, err)
	}
	if !res.Correct {
		return nil, nil, fmt.Errorf("%s: run reported correct=false", s.name)
	}
	var det runDetail
	raw, err := os.ReadFile(detailPath)
	if err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(raw, &det); err != nil {
		return nil, nil, err
	}
	return res, &det, nil
}

// lastLine parses the driver contract's result: the last line of a run's
// standard output.
func lastLine(out []byte) (*runResult, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var res runResult
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("last output line is not the result object: %w", err)
	}
	return &res, nil
}

// measure runs the noise protocol: repetitions interleaved round-robin
// across workloads (fresh processes and servers every time), the median over
// repetitions reported with its spread; then, with traced, one traced pass
// per workload. sides > 1 measures that many suites of the same code at once,
// one round of every workload for each side in turn (which side goes first
// alternates), so that the host's minutes-long drifts fall on all sides alike
// and every run still follows the same workload as in a single suite: a run
// that came straight after another of its own workload read differently
// (inproc-waves p95 5.4 ms against 4.1 ms, seven times out of seven).
func (c suiteConfig) measure(sides int, traced bool) ([]*suiteResult, error) {
	out := make([]*suiteResult, sides)
	for i := range out {
		out[i] = &suiteResult{Meta: collectMeta(c.ctx, c.workDir), Seed: c.seed, Seconds: c.seconds}
		for _, s := range specs {
			out[i].Workloads = append(out[i].Workloads, &workloadResult{Name: s.name, EndToEnd: make(map[string]*series)})
		}
	}
	for rep := 0; rep < suiteReps; rep++ {
		for k := 0; k < sides; k++ {
			side := k
			if rep%2 == 1 {
				side = sides - 1 - k
			}
			for wi, s := range specs {
				fmt.Printf("rep %d/%d %-13s ", rep+1, suiteReps, s.name)
				res, det, err := c.child(s, false)
				if err != nil {
					fmt.Println("FAILED")
					return nil, err
				}
				w := out[side].Workloads[wi]
				w.Reps++
				w.Attempted += res.Attempted
				w.Failed += res.Failed
				w.Samples = det.Samples
				for _, g := range gates {
					v, ok := det.Gated[g.Name]
					if !ok {
						continue
					}
					if w.EndToEnd[g.Name] == nil {
						w.EndToEnd[g.Name] = &series{Unit: g.Unit}
					}
					w.EndToEnd[g.Name].Values = append(w.EndToEnd[g.Name].Values, v)
				}
				fmt.Printf("%9.1f req/s  p50 %8.3f ms  p95 %8.3f ms  failed %d/%d\n",
					res.Metrics["augment_rps"].Value, res.Metrics["augment_p50_ms"].Value, res.Metrics["augment_p95_ms"].Value, res.Failed, res.Attempted)
			}
		}
	}
	for _, sr := range out {
		for wi, s := range specs {
			w := sr.Workloads[wi]
			for _, ser := range w.EndToEnd {
				ser.Median, ser.Spread = median(ser.Values), spread(ser.Values)
			}
			if !traced {
				continue
			}
			fmt.Printf("traced pass %s\n", s.name)
			res, det, err := c.child(s, true)
			if err != nil {
				return nil, err
			}
			w.PerLayer, w.Stages, w.Probes = res.Metrics, det.Stages, det.Probes
			if n, ok := det.Samples["traced_requests"]; ok {
				w.Samples["traced_requests"] = n
			}
		}
	}
	return out, nil
}

func (sr *suiteResult) print() {
	for _, w := range sr.Workloads {
		fmt.Printf("\n== %s: %d reps, attempted=%d failed=%d\n", w.Name, w.Reps, w.Attempted, w.Failed)
		fmt.Printf("  %-36s %14s %-6s %8s\n", "end-to-end metric", "median", "unit", "spread")
		for _, g := range gates {
			if ser := w.EndToEnd[g.Name]; ser != nil {
				fmt.Printf("  %-36s %14.6g %-6s %7.1f%%\n", g.Name, ser.Median, g.Unit, 100*ser.Spread)
			}
		}
		fmt.Printf("  %-36s %14s %-6s\n", "per-layer metric (traced pass, probes)", "value", "unit")
		for _, d := range perLayer {
			if v := w.PerLayer[d.Name].Value; v != 0 {
				fmt.Printf("  %-36s %14.6g %-6s\n", d.Name, v, d.Unit)
			}
		}
		printStages(w.Stages)
	}
}

func (sr *suiteResult) write(path string) error {
	raw, err := json.MarshalIndent(sr, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResult(path string) (*suiteResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

func runSuite(c suiteConfig, out string) (int, error) {
	srs, err := c.measure(1, true)
	if err != nil {
		return 1, err
	}
	sr := srs[0]
	sr.print()
	if err := sr.write(out); err != nil {
		return 1, err
	}
	fmt.Printf("\nwrote %s\n", out)
	return 0, nil
}
