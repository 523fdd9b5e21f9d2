package main

import (
	"fmt"
	"sort"

	"repro/internal/obs/trace"
	"repro/internal/stats"
)

// Stage names of the per-request budget. The first seven are the server's
// span names; stageUnattributed is the root span's self time (job hand-off,
// epoch install, a discarded speculative execution) and stageWire is the
// client-observed latency minus the root span (HTTP, JSON, loopback).
const (
	stageUnattributed = "unattributed"
	stageWire         = "wire"
)

var stageOrder = []string{stageWire, "queue", "gate_wait", "exec", "admit", "solve", "commit", "wal_fsync", stageUnattributed}

// selfTimes gives every span its self time in microseconds: the span's
// duration minus the part its children cover. It is computed as a partition
// of the root interval — each elementary interval between span boundaries
// goes to the deepest span covering it (the later-started one on a tie) — so
// the self times always sum to the root's duration, also when sibling spans
// overlap or a child pokes outside its parent.
func selfTimes(spans []trace.SpanSnapshot) []int64 {
	self := make([]int64, len(spans))
	if len(spans) == 0 {
		return self
	}
	rootEnd := spans[trace.Root].DurationUS
	depth := make([]int, len(spans))
	for i, sp := range spans {
		for p := sp.Parent; p >= 0 && p < len(spans) && depth[i] <= len(spans); p = spans[p].Parent {
			depth[i]++
		}
	}
	clip := func(v int64) int64 { return min(max(v, 0), rootEnd) }
	cuts := []int64{0, rootEnd}
	for _, sp := range spans {
		cuts = append(cuts, clip(sp.StartUS), clip(sp.StartUS+sp.DurationUS))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if a == b {
			continue
		}
		owner := trace.Root
		for i, sp := range spans {
			if clip(sp.StartUS) <= a && b <= clip(sp.StartUS+sp.DurationUS) && depth[i] >= depth[owner] {
				owner = i
			}
		}
		self[owner] += b - a
	}
	return self
}

// tracedRequest is one ?trace=1 answer: what the client measured and the
// span tree the server echoed.
type tracedRequest struct {
	clientUS float64
	snap     *trace.Snapshot
}

// slackUS is how far a span may poke out of the request span, and the request
// span out of the client's own measurement: the server truncates offsets and
// durations to whole microseconds, one by one.
const slackUS = 2

// budget splits one traced request's client-observed latency into stage self
// times: the span tree partitions the request span, and wire overhead is what
// the client saw beyond it, so the parts add up to the client latency by
// construction. What it checks is that the tree can be read that way at all:
// span 0 is the request span the snapshot reports, every other span hangs
// under an earlier one and lies inside the request span, and the server did
// not hold the request longer than the client waited for it.
func (t tracedRequest) budget() (map[string]float64, error) {
	spans := t.snap.Spans
	if len(spans) == 0 || spans[trace.Root].Parent >= 0 || spans[trace.Root].StartUS != 0 || spans[trace.Root].DurationUS != t.snap.DurationUS {
		return nil, fmt.Errorf("trace %s: span 0 is not the %d µs request span", t.snap.TraceID, t.snap.DurationUS)
	}
	root := t.snap.DurationUS
	for i, sp := range spans[1:] {
		if sp.Parent < 0 || sp.Parent > i {
			return nil, fmt.Errorf("trace %s: span %q has parent %d", t.snap.TraceID, sp.Name, sp.Parent)
		}
		if sp.DurationUS < 0 || sp.StartUS < -slackUS || sp.StartUS+sp.DurationUS > root+slackUS {
			return nil, fmt.Errorf("trace %s: span %q [%d, %d] µs lies outside the request span [0, %d]",
				t.snap.TraceID, sp.Name, sp.StartUS, sp.StartUS+sp.DurationUS, root)
		}
	}
	if t.clientUS < float64(root-slackUS) {
		return nil, fmt.Errorf("trace %s: request span is %d µs but the client waited only %.1f µs", t.snap.TraceID, root, t.clientUS)
	}
	self := selfTimes(spans)
	parts := make(map[string]float64, len(stageOrder))
	for i, sp := range spans {
		name := sp.Name
		if i == trace.Root {
			name = stageUnattributed
		}
		parts[name] += float64(self[i])
	}
	parts[stageWire] = t.clientUS - float64(root)
	return parts, nil
}

// maxUnattributed is the share of the request spans' time that may fall
// under no named stage before the budget is refused as meaningless (ROADMAP's
// target for it is 5 %; the seed commit shows 0.5–2 %).
const maxUnattributed = 0.5

// stageStats is one row of a "where the time goes" table.
type stageStats struct {
	Stage  string  `json:"stage"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	// Share is MeanUS over the mean client-observed latency: means add up
	// across stages, medians do not.
	Share float64 `json:"share_of_client_mean"`
}

// stageBudget folds traced requests into per-stage statistics.
func stageBudget(reqs []tracedRequest) ([]stageStats, error) {
	per := make(map[string][]float64)
	total, inServer, unnamed := 0.0, 0.0, 0.0
	for _, r := range reqs {
		parts, err := r.budget()
		if err != nil {
			return nil, err
		}
		for _, st := range stageOrder {
			per[st] = append(per[st], parts[st])
		}
		for name := range parts {
			if _, known := per[name]; !known {
				return nil, fmt.Errorf("trace %s: unknown span %q", r.snap.TraceID, name)
			}
		}
		total += r.clientUS
		inServer += float64(r.snap.DurationUS)
		unnamed += parts[stageUnattributed]
	}
	// A tree that names no stage still partitions — everything lands in the
	// request span's own self time — and says nothing about where time goes.
	if unnamed > maxUnattributed*inServer {
		return nil, fmt.Errorf("stage budget: %.0f %% of the request spans' time is under no named stage", 100*unnamed/inServer)
	}
	var rows []stageStats
	for _, st := range stageOrder {
		s := sortedCopy(per[st])
		p50, _ := quantile(s, 0.5)
		p95, _ := quantile(s, 0.95)
		rows = append(rows, stageStats{
			Stage: st, MeanUS: mean(s), P50US: p50, P95US: p95,
			Share: stats.Ratio(mean(s)*float64(len(reqs)), total),
		})
	}
	return rows, nil
}

func stageRow(rows []stageStats, stage string) stageStats {
	for _, r := range rows {
		if r.Stage == stage {
			return r
		}
	}
	return stageStats{Stage: stage}
}
