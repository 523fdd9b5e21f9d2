package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"

	"repro/internal/obs"
)

// counters is a flat view of one process's obs registry and Go memstats at
// one instant: counters and gauges by their exposition name, histograms as
// <name>_count and <name>_sum, memstats as mem_<field>.
type counters map[string]float64

// debugVars is the part of /debug/vars the harness reads.
type debugVars struct {
	Memstats struct {
		Mallocs      float64
		TotalAlloc   float64
		PauseTotalNs float64
		NumGC        float64
	} `json:"memstats"`
	Metrics map[string]json.RawMessage `json:"metrics"`
}

func (v *debugVars) flatten() counters {
	c := counters{
		"mem_mallocs":     v.Memstats.Mallocs,
		"mem_total_alloc": v.Memstats.TotalAlloc,
		"mem_pause_ns":    v.Memstats.PauseTotalNs,
		"mem_num_gc":      v.Memstats.NumGC,
	}
	for name, raw := range v.Metrics {
		var num float64
		if json.Unmarshal(raw, &num) == nil {
			c[name] = num
			continue
		}
		var hist struct{ Count, Sum float64 }
		if json.Unmarshal(raw, &hist) == nil {
			c[name+"_count"] = hist.Count
			c[name+"_sum"] = hist.Sum
		}
	}
	return c
}

// scrape reads a server's /debug/vars (registry snapshot + memstats).
func scrape(obsAddr string) (counters, error) {
	resp, err := http.Get("http://" + obsAddr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: %s", resp.Status)
	}
	var v debugVars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.flatten(), nil
}

// scrapeSelf is scrape for this process (the in-process workload and the
// run-manifest snapshot of the offline one share the registry's JSON form).
func scrapeSelf() (counters, error) {
	raw, err := json.Marshal(obs.Default().Snapshot())
	if err != nil {
		return nil, err
	}
	var v debugVars
	if err := json.Unmarshal(raw, &v.Metrics); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v.Memstats.Mallocs = float64(ms.Mallocs)
	v.Memstats.TotalAlloc = float64(ms.TotalAlloc)
	v.Memstats.PauseTotalNs = float64(ms.PauseTotalNs)
	v.Memstats.NumGC = float64(ms.NumGC)
	return v.flatten(), nil
}

// since returns c − before, key by key.
func (c counters) since(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}
