package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance records what produced a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Rev        string `json:"rev"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	Worlds     int    `json:"worlds"`
	Cycles     int    `json:"cycles"`
	Requests   int    `json:"requests"`
	Attempted  int    `json:"attempted"`
	Hung       int    `json:"hung"`
	Dead       int    `json:"unrecovered_failures"`
	TailPct    int    `json:"tail_percentile"`
	TailN      int    `json:"tail_samples"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n))) - 1
}

// tail returns the highest of p99 and p90 that has at least ten samples
// beyond it, and which one it used.
func tail(sorted []float64) (float64, int, error) {
	for _, p := range []int{99, 90} {
		r := rank(float64(p), len(sorted))
		if len(sorted)-1-r >= 10 {
			return sorted[r], p, nil
		}
	}
	return 0, 0, fmt.Errorf("%d successful setups leave fewer than ten beyond p90", len(sorted))
}

// endToEnd runs each of the workload's worlds once, then repeats worlds in
// turn until the time budget is spent (at least one repeat). Every repeat
// must decide exactly the outcome of its world's first cycle. Simulation
// metrics and the attempted and failed counts pool the worlds' first
// cycles; host timings take each world's median cycle.
func endToEnd(s spec, seed int64, budget time.Duration) (result, provenance, error) {
	var (
		first = make([]*outcome, s.worlds)
		fps   = make([]string, s.worlds)
		runs  = make([][]float64, s.worlds) // run seconds per cycle, per world
		heaps = make([][]float64, s.worlds) // live heap MB per cycle, per world
		setup []float64
		prov  provenance
		res   = result{Correct: true}
	)
	start := time.Now()
	for i := 0; i < s.worlds+1 || time.Since(start) < budget; i++ {
		k := i % s.worlds
		out, h := s.cycle(s.worldSeed(seed, k), hooks{})
		if first[k] == nil {
			first[k], fps[k] = out, out.fingerprint()
		} else if out.fingerprint() != fps[k] {
			return res, prov, fmt.Errorf("%s seed %d: world %d decided a different simulation outcome on its cycle %d",
				s.name, seed, k, len(runs[k])+1)
		}
		fmt.Fprintf(os.Stderr, "%s world %d: setup %.3fs run %.3fs\n", s.name, k, h.setup.Seconds(), h.run.Seconds())
		setup = append(setup, h.setup.Seconds())
		runs[k] = append(runs[k], h.run.Seconds())
		heaps[k] = append(heaps[k], float64(h.heapLive)/1e6)
	}

	var all outcome
	var runSec, heap float64
	for k := range first {
		all.add(first[k])
		runSec += median(runs[k])
		heap += median(heaps[k]) / float64(s.worlds)
	}
	if all.Attempted == 0 {
		return res, prov, fmt.Errorf("%s seed %d: no request was attempted", s.name, seed)
	}
	// Repeats re-run their world's requests with a checked identical
	// outcome, so each world's requests count once. The counts then depend
	// on the workload and seed alone, not on how many repeats the host's
	// speed allowed.
	res.Attempted, res.Failed = all.Attempted, all.Hung()
	sorted := append([]float64(nil), all.SetupMs...)
	sort.Float64s(sorted)
	tl, pct, err := tail(sorted)
	if err != nil {
		return res, prov, fmt.Errorf("%s seed %d: %w", s.name, seed, err)
	}
	res.Metrics = map[string]metric{
		"setup_s":          {median(setup), "s"},
		"requests_per_s":   {float64(all.Scheduled) / runSec, "1/s"},
		"heap_live_mb":     {heap, "MB"},
		"success_ratio":    {float64(all.Ok) / float64(all.Attempted), "ratio"},
		"setup_p50_ms":     {sorted[rank(50, len(sorted))], "ms"},
		"setup_tail_ms":    {tl, "ms"},
		"msgs_per_request": {float64(all.Msgs) / float64(all.Scheduled), "count"},
	}
	prov = provenance{
		Worlds: s.worlds, Cycles: len(setup), Requests: all.Scheduled, Attempted: all.Attempted,
		Hung: all.Hung(), Dead: all.Rec.Dead, TailPct: pct, TailN: len(sorted),
	}
	return res, prov, nil
}
