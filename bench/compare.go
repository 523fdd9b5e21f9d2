package main

import (
	"fmt"
	"math"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictDiagnostic = "diagnostic" // demoted on this workload (spec.diagnostic): reported, not judged
)

// comparison is one row of `-compare A.json B.json`.
type comparison struct {
	Workload, Metric string
	A, B             float64 // medians over repetitions
	SpreadA, SpreadB float64 // (max−min)/median over repetitions
	Allowed          float64 // max(Rel·|A|, Abs): how much worse B may be, in the metric's unit
	Worsened         float64 // B − A turned so that positive is worse, in the metric's unit
	Wide             bool    // one side's repetitions span more than Allowed
	Verdict          string
}

// moved reports whether the medians differ by more than the gate allows, in
// either direction and whatever the spread.
func (c comparison) moved() bool { return math.Abs(c.Worsened) > c.Allowed }

// judge compares B against A for one gate. Repetitions that span more than
// the gate allows while the two sides overlap cannot be called either way;
// otherwise the medians decide.
func judge(g gate, a, b *series, gated bool) comparison {
	c := comparison{Metric: g.Name, A: a.Median, B: b.Median, SpreadA: a.Spread, SpreadB: b.Spread}
	c.Allowed = math.Max(g.Rel*math.Abs(a.Median), g.Abs)
	c.Worsened = b.Median - a.Median
	if g.Better == "higher" {
		c.Worsened = -c.Worsened
	}
	c.Wide = math.Max(a.Spread*math.Abs(a.Median), b.Spread*math.Abs(b.Median)) > c.Allowed
	lo := func(s *series) float64 { return sortedCopy(s.Values)[0] }
	hi := func(s *series) float64 { v := sortedCopy(s.Values); return v[len(v)-1] }
	overlap := len(a.Values) > 0 && len(b.Values) > 0 && lo(a) <= hi(b) && lo(b) <= hi(a)
	switch {
	case !gated:
		c.Verdict = verdictDiagnostic
	case c.Wide && overlap:
		c.Verdict = verdictUnresolved
	case c.Worsened > c.Allowed:
		c.Verdict = verdictWorse
	case c.Worsened < -c.Allowed:
		c.Verdict = verdictBetter
	default:
		c.Verdict = verdictSame
	}
	return c
}

func compareResults(a, b *suiteResult) []comparison {
	var rows []comparison
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			s := specByName(wa.Name)
			for _, g := range gates {
				sa, sb := wa.EndToEnd[g.Name], wb.EndToEnd[g.Name]
				if sa == nil || sb == nil {
					continue
				}
				c := judge(g, sa, sb, s == nil || !s.isDiagnostic(g.Name))
				c.Workload = wa.Name
				rows = append(rows, c)
			}
		}
	}
	return rows
}

// printComparison prints one row per workload × metric. Bound and change are
// shown as shares of A's median, also where the gate is absolute.
func printComparison(rows []comparison) {
	share := func(v, of float64) float64 {
		if of == 0 {
			return 0
		}
		return 100 * v / math.Abs(of)
	}
	fmt.Printf("%-13s %-17s %12s %12s %8s %8s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "A spread", "B spread", "bound", "worsened", "verdict")
	for _, r := range rows {
		fmt.Printf("%-13s %-17s %12.6g %12.6g %7.1f%% %7.1f%% %7.1f%% %+7.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.SpreadA, 100*r.SpreadB, share(r.Allowed, r.A), share(r.Worsened, r.A), r.Verdict)
	}
}

// compareFiles prints the comparison of two suite results; it exits 1 when
// any row is worse.
func compareFiles(pathA, pathB string) (int, error) {
	a, err := readResult(pathA)
	if err != nil {
		return 1, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return 1, err
	}
	rows := compareResults(a, b)
	if len(rows) == 0 {
		return 1, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	printComparison(rows)
	for _, r := range rows {
		if r.Verdict == verdictWorse {
			return 1, fmt.Errorf("%s %s is worse by %.4g (allowed %.4g)", r.Workload, r.Metric, r.Worsened, r.Allowed)
		}
	}
	return 0, nil
}

// runSelfcheck measures the same code twice, the two suites' repetitions
// alternating, and fails if any gated median moved by more than its bound,
// whatever the spread. Rows whose repetitions span more than their bound agree
// all the same, but -compare could only resolve a change on them when one
// side's every run beats the other's, so they are counted in the closing
// line.
func runSelfcheck(c suiteConfig) (int, error) {
	srs, err := c.measure(2, false)
	if err != nil {
		return 1, err
	}
	rows := compareResults(srs[0], srs[1])
	printComparison(rows)
	gated, moved, wide := 0, 0, 0
	for _, r := range rows {
		if r.Verdict == verdictDiagnostic {
			continue
		}
		gated++
		if r.moved() {
			moved++
			fmt.Printf("MOVED %s %s: %.6g -> %.6g, allowed %.4g\n", r.Workload, r.Metric, r.A, r.B, r.Allowed)
		}
		if r.Wide {
			wide++
		}
	}
	if moved > 0 {
		return 1, fmt.Errorf("selfcheck: %d of %d gated medians moved by more than their bound between two runs of the same code (%d rows spread wider than their bound)", moved, gated, wide)
	}
	fmt.Printf("selfcheck OK: %d gated medians agree within their bounds; %d of them spread wider than their bound across repetitions\n", gated, wide)
	return 0, nil
}
