package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// RenderTables writes the three sub-plot tables of a sweep — (a) achieved
// SFC reliability, (b) capacity usage of the randomized algorithm, (c)
// running times — as aligned text, mirroring the paper's figure structure.
func (s *Sweep) RenderTables(w io.Writer) error {
	var b strings.Builder
	b.WriteString(s.header())
	b.WriteString("\n\n")

	algs := s.sortedAlgs()

	// (a) reliability
	b.WriteString(fmt.Sprintf("(a) achieved SFC reliability vs %s\n", s.XLabel))
	writeTable(&b, s, algs, func(ap AlgPoint) string {
		return fmt.Sprintf("%.4f", ap.Reliability.Mean)
	})
	b.WriteString("\n")

	// (a') relative to ILP, when present
	if contains(algs, "ILP") && len(algs) > 1 {
		b.WriteString("(a') reliability relative to ILP (1.0000 = parity)\n")
		writeTable(&b, s, algs, func(ap AlgPoint) string {
			if ap.RelVsILP == 0 {
				return "-"
			}
			return fmt.Sprintf("%.4f", ap.RelVsILP)
		})
		b.WriteString("\n")
	}

	// (b) capacity usage (Randomized, as in the paper; others for context)
	b.WriteString("(b) capacity usage ratio (avg / min / max across cloudlets; >1 = violation)\n")
	writeTable(&b, s, algs, func(ap AlgPoint) string {
		return fmt.Sprintf("%.2f/%.2f/%.2f", ap.UsageAvg.Mean, ap.UsageMin.Mean, ap.UsageMax.Mean)
	})
	b.WriteString("\n")
	if contains(algs, "Randomized") {
		b.WriteString("    capacity violation rate (fraction of trials)\n")
		writeTable(&b, s, algs, func(ap AlgPoint) string {
			return fmt.Sprintf("%.3f", ap.ViolationRate)
		})
		b.WriteString("\n")
	}

	// (c) running time
	b.WriteString("(c) running time, milliseconds (mean per request)\n")
	writeTable(&b, s, algs, func(ap AlgPoint) string {
		return fmt.Sprintf("%.3f", ap.RuntimeMS.Mean)
	})

	_, err := io.WriteString(w, b.String())
	return err
}

// writeTable renders one metric as rows = x-axis points, columns = algorithms.
func writeTable(b *strings.Builder, s *Sweep, algs []string, cell func(AlgPoint) string) {
	colw := 16
	b.WriteString(fmt.Sprintf("  %-14s", s.XLabel))
	for _, a := range algs {
		b.WriteString(fmt.Sprintf("%*s", colw, a))
	}
	b.WriteString("\n")
	for _, p := range s.Points {
		b.WriteString(fmt.Sprintf("  %-14s", p.Label))
		for _, a := range algs {
			ap, ok := p.Algs[a]
			if !ok {
				b.WriteString(fmt.Sprintf("%*s", colw, "-"))
				continue
			}
			b.WriteString(fmt.Sprintf("%*s", colw, cell(ap)))
		}
		b.WriteString("\n")
	}
}

// RenderCSV writes the sweep as one flat CSV: a row per (point, algorithm).
// unproven_share is filled for exact-solver rows only (see
// AlgPoint.UnprovenShare) and left empty for the others.
func (s *Sweep) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"sweep", "x_label", "x", "point", "algorithm",
		"reliability_mean", "reliability_ci95", "reliability_min", "reliability_max",
		"runtime_ms_mean", "usage_avg", "usage_min", "usage_max",
		"violation_rate", "rel_vs_ilp", "trials", "unproven_share",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range s.Points {
		for _, a := range s.sortedAlgs() {
			ap, ok := p.Algs[a]
			if !ok {
				continue
			}
			row := []string{
				s.Name, s.XLabel,
				fmt.Sprintf("%g", p.X), p.Label, a,
				fmt.Sprintf("%.6f", ap.Reliability.Mean),
				fmt.Sprintf("%.6f", ap.Reliability.CI95()),
				fmt.Sprintf("%.6f", ap.Reliability.Min),
				fmt.Sprintf("%.6f", ap.Reliability.Max),
				fmt.Sprintf("%.4f", ap.RuntimeMS.Mean),
				fmt.Sprintf("%.4f", ap.UsageAvg.Mean),
				fmt.Sprintf("%.4f", ap.UsageMin.Mean),
				fmt.Sprintf("%.4f", ap.UsageMax.Mean),
				fmt.Sprintf("%.4f", ap.ViolationRate),
				fmt.Sprintf("%.4f", ap.RelVsILP),
				fmt.Sprintf("%d", s.Trials),
				"",
			}
			if ap.Exact {
				row[len(row)-1] = fmt.Sprintf("%.4f", ap.UnprovenShare)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
