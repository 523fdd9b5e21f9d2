package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/serve"
)

func TestQuantileExactWithSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 0, p: 0.5, want: 0, ok: false},
		{n: 1, p: 0.5, want: 1, ok: true},
		{n: 4, p: 0.5, want: 2, ok: true},         // nearest rank: ceil(0.5·4) = 2
		{n: 5, p: 0.5, want: 3, ok: true},         // ceil(2.5) = 3
		{n: 199, p: 0.95, want: 190, ok: false},   // 9 samples beyond rank 190
		{n: 200, p: 0.95, want: 190, ok: true},    // exactly 10 beyond
		{n: 999, p: 0.99, want: 990, ok: false},   // 9 beyond
		{n: 1000, p: 0.99, want: 990, ok: true},   // 10 beyond
		{n: 30, p: 0.95, want: 29, ok: false},     // the Fig. 1(c) cells: value exact, rule not met
		{n: 1000, p: 0.999, want: 999, ok: false}, // 1 beyond
	} {
		got, ok := quantile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("quantile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", m)
	}
	if s := spread([]float64{90, 100, 110}); !approx(s, 0.2, 1e-12) {
		t.Errorf("spread = %g, want 0.2", s)
	}
}

// handTree is the serving span shape with every awkward case in it: a gap
// before exec (unattributed), nested children that do not fill their parent
// (exec self time), and a gate_wait that overlaps nothing.
//
//	request  [0,1000)
//	  queue      [0,300)
//	  exec       [320,700)
//	    admit      [320,400)
//	    solve      [400,650)
//	    commit     [660,700)      → exec self = [650,660) = 10
//	  gate_wait  [700,820)
//	  wal_fsync  [830,990)        → request self = 20 + 10 + 10 = 40
func handTree() []trace.SpanSnapshot {
	return []trace.SpanSnapshot{
		{Span: 0, Parent: -1, Name: "request", StartUS: 0, DurationUS: 1000},
		{Span: 1, Parent: 0, Name: "queue", StartUS: 0, DurationUS: 300},
		{Span: 2, Parent: 0, Name: "exec", StartUS: 320, DurationUS: 380},
		{Span: 3, Parent: 2, Name: "admit", StartUS: 320, DurationUS: 80},
		{Span: 4, Parent: 2, Name: "solve", StartUS: 400, DurationUS: 250},
		{Span: 5, Parent: 2, Name: "commit", StartUS: 660, DurationUS: 40},
		{Span: 6, Parent: 0, Name: "gate_wait", StartUS: 700, DurationUS: 120},
		{Span: 7, Parent: 0, Name: "wal_fsync", StartUS: 830, DurationUS: 160},
	}
}

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	got := selfTimes(handTree())
	want := []int64{40, 300, 10, 80, 250, 40, 120, 160}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	// Overlapping siblings and a child that outlives the root still partition
	// the root exactly: the later-started sibling owns the overlap.
	overlap := []trace.SpanSnapshot{
		{Span: 0, Parent: -1, Name: "request", StartUS: 0, DurationUS: 100},
		{Span: 1, Parent: 0, Name: "gate_wait", StartUS: 10, DurationUS: 60},
		{Span: 2, Parent: 0, Name: "exec", StartUS: 40, DurationUS: 80},
	}
	got = selfTimes(overlap)
	if want := []int64{10, 30, 60}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes(overlap) = %v, want %v", got, want)
	}
}

func TestBudgetSumsToClientLatency(t *testing.T) {
	req := tracedRequest{clientUS: 1234.5, snap: &trace.Snapshot{TraceID: "t", DurationUS: 1000, Spans: handTree()}}
	parts, err := req.budget()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	if !approx(sum, 1234.5, 1e-12) || parts[stageWire] != 234.5 || parts[stageUnattributed] != 40 || parts["exec"] != 10 {
		t.Fatalf("budget %v sums to %g, want 1234.5 with wire 234.5, unattributed 40, exec 10", parts, sum)
	}
	rows, err := stageBudget([]tracedRequest{req, req})
	if err != nil {
		t.Fatal(err)
	}
	shares := 0.0
	for _, r := range rows {
		shares += r.Share
	}
	if !approx(shares, 1, 1e-12) {
		t.Fatalf("stage shares sum to %g, want 1", shares)
	}

	// Trees the budget must refuse rather than partition.
	mangle := func(f func(spans []trace.SpanSnapshot)) tracedRequest {
		spans := handTree()
		f(spans)
		return tracedRequest{clientUS: 1234.5, snap: &trace.Snapshot{TraceID: "t", DurationUS: 1000, Spans: spans}}
	}
	for name, bad := range map[string]tracedRequest{
		"span outlives the request":                    mangle(func(s []trace.SpanSnapshot) { s[7].DurationUS = 400 }),
		"span starts before the request":               mangle(func(s []trace.SpanSnapshot) { s[1].StartUS = -50 }),
		"orphan span":                                  mangle(func(s []trace.SpanSnapshot) { s[3].Parent = -1 }),
		"root is not the request span":                 mangle(func(s []trace.SpanSnapshot) { s[0].DurationUS = 900 }),
		"server held it longer than the client waited": {clientUS: 900, snap: &trace.Snapshot{TraceID: "t", DurationUS: 1000, Spans: handTree()}},
	} {
		if _, err := bad.budget(); err == nil {
			t.Errorf("%s: budget accepted the trace", name)
		}
	}
	bare := tracedRequest{clientUS: 1234.5, snap: &trace.Snapshot{TraceID: "t", DurationUS: 1000, Spans: handTree()[:1]}}
	if _, err := stageBudget([]tracedRequest{bare}); err == nil {
		t.Error("stageBudget accepted request spans with no named stage under them")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	render := func(s *spec, seed int64) (scenario []byte, bodies []byte) {
		t.Helper()
		net := s.network()
		path, err := writeScenario(t.TempDir(), net)
		if err != nil {
			t.Fatal(err)
		}
		if scenario, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < conns; c++ {
			st := s.newStream(net, seed, c)
			for i := 0; i < 200; i++ {
				bodies = append(bodies, body(st.next())...)
				bodies = append(bodies, '\n')
			}
		}
		return scenario, bodies
	}
	for _, s := range specs {
		if s.kind == kindOffline {
			continue // pinned to the paper-figure seed; takes no generated inputs
		}
		scenA, bodA := render(s, 1)
		scenB, bodB := render(s, 1)
		if !bytes.Equal(scenA, scenB) || !bytes.Equal(bodA, bodB) {
			t.Errorf("%s: seed 1 rendered two different scenario files or request streams", s.name)
		}
		scenC, bodC := render(s, 2)
		if !bytes.Equal(scenA, scenC) || bytes.Equal(bodA, bodC) {
			t.Errorf("%s: seeds 1 and 2 must share the network and differ in their request streams", s.name)
		}
	}
	// Clients of one run must not send each other's streams.
	s := specByName("wire-default")
	net := s.network()
	if a, b := body(s.newStream(net, 1, 0).next()), body(s.newStream(net, 1, 1).next()); bytes.Equal(a, b) {
		t.Errorf("clients 0 and 1 start with the same request %s", a)
	}
}

// readContract loads the committed BENCHMARK.json from the repository root.
func readContract(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestContractMatchesCatalog(t *testing.T) {
	got, want := readContract(t), buildSpec()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the catalog; regenerate it with `bash bench/run.sh -spec > BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestResultRoundTripsAndNamesEveryMetric(t *testing.T) {
	contract := readContract(t)
	names := func(ms map[string]metricValue) []string {
		out := make([]string, 0, len(ms))
		for k := range ms {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	var wantE2E, wantLayer []string
	for _, d := range contract.EndToEnd {
		wantE2E = append(wantE2E, d.Name)
	}
	for _, d := range contract.PerLayer {
		wantLayer = append(wantLayer, d.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)

	e2e, err := fill(endToEnd, map[string]float64{"setup_s": 0.0123456789, "augment_rps": 631.25})
	if err != nil {
		t.Fatal(err)
	}
	layer, err := fill(perLayer, map[string]float64{"wire.decode_us": 3.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := names(e2e); !reflect.DeepEqual(got, wantE2E) {
		t.Errorf("--trace 0 result names %v, BENCHMARK.json end_to_end names %v", got, wantE2E)
	}
	if got := names(layer); !reflect.DeepEqual(got, wantLayer) {
		t.Errorf("--trace 1 result names %v, BENCHMARK.json per_layer names %v", got, wantLayer)
	}
	if _, err := fill(endToEnd, map[string]float64{"not_a_metric": 1}); err == nil {
		t.Error("fill accepted a metric outside the catalog")
	}
	if _, err := fill(endToEnd, map[string]float64{"setup_s": math.NaN()}); err == nil {
		t.Error("fill accepted NaN")
	}

	// The driver's line: exactly four keys, and it survives a round trip.
	res := &runResult{Correct: true, Attempted: 5000, Failed: 0, Metrics: e2e}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	back, err := lastLine(append([]byte("workload x: attempted=1\n  setup_s 1 s\n"), append(line, '\n')...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Errorf("round trip changed the result: %+v != %+v", back, res)
	}

	// The suite result names exactly the contract's workloads and round-trips.
	sr := &suiteResult{Seed: 1, Seconds: 4}
	for _, s := range specs {
		w := &workloadResult{Name: s.name, Reps: 2, EndToEnd: map[string]*series{}, PerLayer: layer, Samples: map[string]int{"augments": 10}}
		for _, g := range gates {
			w.EndToEnd[g.Name] = &series{Median: 1, Spread: 0.1, Values: []float64{0.95, 1.05}, Unit: g.Unit}
		}
		sr.Workloads = append(sr.Workloads, w)
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := sr.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sr) {
		t.Error("suite result changed across write and read")
	}
	if len(got.Workloads) != len(contract.Workloads) {
		t.Fatalf("suite result has %d workloads, BENCHMARK.json %d", len(got.Workloads), len(contract.Workloads))
	}
	for i, w := range contract.Workloads {
		if got.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s in the result, %s in BENCHMARK.json", i, got.Workloads[i].Name, w.Name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestBaselineNamesEveryMetricAndWorkload(t *testing.T) {
	sr, err := readResult(filepath.Join("baseline", "seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Workloads) != len(specs) {
		t.Fatalf("baseline has %d workloads, want %d", len(sr.Workloads), len(specs))
	}
	for i, w := range sr.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("baseline workload %d is %s, want %s", i, w.Name, specs[i].name)
		}
		if len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: baseline has %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(perLayer))
		}
		for _, d := range endToEnd {
			if ser := w.EndToEnd[d.Name]; ser == nil || ser.Median == 0 {
				t.Errorf("%s: baseline %s is missing or zero", w.Name, d.Name)
			}
		}
		// The three gates beyond the contract's eight apply where they mean
		// something: releases and met_share when serving, sweep_s offline.
		for name, want := range map[string]bool{
			"release_p50_ms": specs[i].kind != kindOffline,
			"met_share":      specs[i].kind != kindOffline,
			"sweep_s":        specs[i].kind == kindOffline,
		} {
			if got := w.EndToEnd[name] != nil; got != want {
				t.Errorf("%s: baseline has %s: %v, want %v", w.Name, name, got, want)
			}
		}
		wantSeries := len(endToEnd) + 2
		if specs[i].kind == kindOffline {
			wantSeries = len(endToEnd) + 1
		}
		if len(w.EndToEnd) != wantSeries {
			t.Errorf("%s: baseline has %d end-to-end series, want %d", w.Name, len(w.EndToEnd), wantSeries)
		}
		for _, d := range perLayer {
			if _, ok := w.PerLayer[d.Name]; !ok {
				t.Errorf("%s: baseline lacks %s", w.Name, d.Name)
			}
		}
		if w.Failed != 0 {
			t.Errorf("%s: baseline recorded %d failed operations", w.Name, w.Failed)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := gate{Name: "augment_p50_ms", Better: "lower", Rel: 0.10}
	higher := gate{Name: "augment_rps", Better: "higher", Rel: 0.10}
	setup := gate{Name: "setup_s", Better: "lower", Rel: 0.50, Abs: 0.020}
	share := gate{Name: "ok_share", Better: "higher", Abs: 0.002}
	ser := func(vs ...float64) *series { return &series{Median: median(vs), Spread: spread(vs), Values: vs} }
	for _, tc := range []struct {
		name  string
		gate  gate
		a, b  *series
		want  string
		moved bool
	}{
		{"tight and equal", lower, ser(1.00, 1.01, 1.02), ser(1.00, 1.02, 1.03), verdictSame, false},
		{"latency up 15 %", lower, ser(1.00, 1.01, 1.02), ser(1.15, 1.16, 1.17), verdictWorse, true},
		{"latency down 30 %", lower, ser(1.00, 1.01, 1.02), ser(0.70, 0.71, 0.72), verdictBetter, true},
		{"throughput down 30 %", higher, ser(1000, 1010, 1020), ser(700, 710, 720), verdictWorse, true},
		{"throughput up 30 %", higher, ser(1000, 1010, 1020), ser(1300, 1310, 1320), verdictBetter, true},
		{"wide and overlapping", lower, ser(0.8, 1.0, 1.3), ser(0.9, 1.2, 1.4), verdictUnresolved, true},
		{"wide but disjoint", lower, ser(0.8, 1.0, 1.3), ser(2.0, 2.4, 2.9), verdictWorse, true},
		{"start-up under the absolute floor", setup, ser(0.004, 0.006, 0.009), ser(0.010, 0.012, 0.015), verdictSame, false},
		{"start-up doubled past the floor", setup, ser(0.090, 0.100, 0.110), ser(0.190, 0.200, 0.210), verdictWorse, true},
		{"one failure in a thousand", share, ser(1, 1, 1), ser(0.999, 0.999, 1), verdictSame, false},
		{"one failure in a hundred", share, ser(1, 1, 1), ser(0.99, 0.99, 0.99), verdictWorse, true},
	} {
		c := judge(tc.gate, tc.a, tc.b, true)
		if c.Verdict != tc.want || c.moved() != tc.moved {
			t.Errorf("%s: verdict %s moved %v, want %s %v", tc.name, c.Verdict, c.moved(), tc.want, tc.moved)
		}
		if d := judge(tc.gate, tc.a, tc.b, false); d.Verdict != verdictDiagnostic {
			t.Errorf("%s: demoted row judged %s", tc.name, d.Verdict)
		}
	}
}

func TestParseFig1(t *testing.T) {
	out := `
FIG1 — varying the SFC length of a request from 2 to 20 (trials=2, seed=42)

(a) achieved SFC reliability vs SFC length
  SFC length                 ILP      Randomized       Heuristic
  2                       0.9985          0.9986          0.9985
  20                      0.8177          0.8441          0.8098

(a') reliability relative to ILP (1.0000 = parity)
  SFC length                 ILP      Randomized       Heuristic
  2                       1.0000          1.0001          1.0000

(c) running time, milliseconds (mean per request)
  SFC length                 ILP      Randomized       Heuristic
  2                        0.020           0.043           0.015
  20                      14.703           1.361           0.207
`
	rel, err := parseFig1(out, headReliability)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := parseFig1(out, headRuntime)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rel.lengths, []int{2, 20}) || !reflect.DeepEqual(rel.solvers, []string{"ILP", "Randomized", "Heuristic"}) {
		t.Fatalf("parsed lengths %v solvers %v", rel.lengths, rel.solvers)
	}
	if rel.cell["Heuristic"][20] != 0.8098 || ms.cell["ILP"][20] != 14.703 || len(ms.all()) != 6 {
		t.Fatalf("parsed cells: rel %v ms %v", rel.cell, ms.cell)
	}
	if _, err := parseFig1(out, "(z) no such table"); err == nil {
		t.Error("parseFig1 found a table that is not there")
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	s := specByName("wire-default")
	net := s.network()
	o := newOracle(net, s.hopBound)
	cls := net.Cloudlets()
	far := -1
	for _, u := range cls {
		if d := net.G.HopDistances(cls[0])[u]; d > s.hopBound {
			far = u
		}
	}
	if far < 0 {
		t.Skip("every cloudlet is within one hop of the first")
	}
	sfc := []int{0, 1}
	good := func() *serve.AugmentResponse {
		return &serve.AugmentResponse{
			ID: 1, Primaries: []int{cls[0], cls[0]}, Secondaries: [][]int{{cls[0]}, {}}, BackupCounts: []int{1, 0},
			Reliability: o.chainReliability(sfc, []int{1, 0}),
		}
	}
	if err := o.check(sfc, good()); err != nil {
		t.Fatalf("oracle rejected a correct answer: %v", err)
	}
	r0, r1 := net.Catalog().Type(0).Reliability, net.Catalog().Type(1).Reliability
	if want := (1 - (1-r0)*(1-r0)) * r1; !approx(good().Reliability, want, 1e-15) {
		t.Fatalf("chainReliability = %g, want %g", good().Reliability, want)
	}
	bad := good()
	bad.Reliability *= 1 + 1e-6
	if o.check(sfc, bad) == nil {
		t.Error("oracle accepted a reliability off by 1e-6")
	}
	bad = good()
	bad.Secondaries[0][0] = far
	if o.check(sfc, bad) == nil {
		t.Errorf("oracle accepted a secondary %d hops from its primary", net.G.HopDistances(cls[0])[far])
	}
	bad = good()
	bad.BackupCounts[1] = 1
	if o.check(sfc, bad) == nil {
		t.Error("oracle accepted backup_counts that disagree with secondaries")
	}

	live := []session{sessionOf(sfc, good())}
	state := make([]serve.CloudletState, 0, len(cls))
	for _, v := range cls {
		state = append(state, serve.CloudletState{ID: v, Capacity: net.Capacity[v], Residual: net.Capacity[v]})
	}
	if o.checkLedger(live, state) == nil {
		t.Error("ledger oracle accepted full residuals with a live placement")
	}
	state[0].Residual -= 2*net.Catalog().Type(0).Demand + net.Catalog().Type(1).Demand
	if err := o.checkLedger(live, state); err != nil {
		t.Errorf("ledger oracle rejected capacity minus live demand: %v", err)
	}
}
