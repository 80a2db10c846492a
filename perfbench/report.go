package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"

	"ecoscale/internal/experiments"
	"ecoscale/internal/workload"
)

// def names one metric and its unit.
type def struct{ name, unit string }

// endToEndDefs are the metrics --trace 0 prints.
var endToEndDefs = []def{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"point_p50_ms", "ms"},
	{"point_p90_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// machineCountNames are machine_hw's exact work counts, in the order
// BENCHMARK.json lists them.
var machineCountNames = []string{
	"sim.events", "sim.makespan_us", "noc.msgs", "noc.bytes",
	"unimem.stream_bytes", "unimem.cache_hits", "unilogic.calls",
	"unilogic.remote_calls", "fabric.loads", "rts.tasks_hw", "rts.tasks_cpu",
}

var casCountNames = []string{"cas.hits", "cas.misses", "cas.corrupt", "cas.bytes_read"}

// perLayerDefs are the metrics --trace 1 prints. Every workload prints
// all of them; one that a workload does not exercise reads 0.
func perLayerDefs() []def {
	var ds []def
	for _, s := range experiments.Registry() {
		ds = append(ds, def{"runner.scenario_s." + s.ID, "s"})
	}
	for _, w := range workload.Registry() {
		ds = append(ds, def{"hls.run_us." + w.Name, "us"})
	}
	for _, n := range machineCountNames {
		unit := "count"
		switch n {
		case "sim.makespan_us":
			unit = "us"
		case "noc.bytes", "unimem.stream_bytes":
			unit = "B"
		}
		ds = append(ds, def{n, unit})
	}
	ds = append(ds, def{"sim_events_per_s", "1/s"})
	for _, n := range casCountNames {
		unit := "count"
		if n == "cas.bytes_read" {
			unit = "B"
		}
		ds = append(ds, def{n, unit})
	}
	ds = append(ds, def{"cas.pass_ms_p50", "ms"}, def{"cas.pass_ms_p90", "ms"})
	for _, l := range append(append([]string{}, layers...), "gc", "other") {
		ds = append(ds, def{"cpu_share." + l, "share"})
	}
	for _, l := range append(append([]string{}, layers...), "other") {
		ds = append(ds, def{"alloc_mb." + l, "MB"})
	}
	return append(ds, def{"trace_overhead", "ratio"})
}

func runUntraced(w workloadDef, e *env) (result, error) {
	b, setups, err := w.open(e)
	if err != nil {
		return result{}, err
	}
	ps := timedPhase(b, e.phase)
	res := tally(setups, ps)
	res.Metrics = endToEnd(setups, ps)
	return res, nil
}

// runTraced splits the timed phase into an untraced half and a profiled
// half, then times the hls kernels, and reports the per-layer metrics.
func runTraced(w workloadDef, e *env) (result, error) {
	b, setups, err := w.open(e)
	if err != nil {
		return result{}, err
	}
	plain := timedPhase(b, e.phase/2)
	var traced []pass
	prof, err := profiled(func() { traced = timedPhase(b, e.phase/2) })
	if err != nil {
		return result{}, err
	}
	res := tally(setups, plain, traced)
	hlsUS, err := hlsRuns(e.seed)
	if err != nil {
		fmt.Fprintln(e.log, "perfbench:", err)
		res.Correct = false
	}
	res.Metrics = perLayer(plain, traced, prof, hlsUS)
	return res, nil
}

// tally counts the operations attempted and failed over every pass.
func tally(groups ...[]pass) result {
	var res result
	for _, g := range groups {
		for _, p := range g {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
	}
	res.Correct = res.Failed == 0
	return res
}

func endToEnd(setups, ps []pass) map[string]metric {
	var setup, walls, rates, allocs []float64
	for _, p := range append(append([]pass{}, setups...), ps...) {
		for _, d := range p.setups {
			setup = append(setup, d.Seconds())
		}
	}
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.attempted-p.failed)/p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
	}
	points := pointTimes(ps)
	vals := map[string]float64{
		"wall_s":       median(walls),
		"setup_s":      median(setup),
		"ops_per_s":    median(rates),
		"point_p50_ms": percentile(points, 0.50),
		"point_p90_ms": percentile(points, 0.90),
		"alloc_mb":     median(allocs),
		"peak_rss_mb":  peakRSSMB(),
	}
	out := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// pointTimes returns the sorted host milliseconds of each point. A
// runner point's time is its median over the passes, so a collection or
// a host stall that hits one pass moves it little; machine_hw's point is
// the whole machine run, one per pass.
func pointTimes(ps []pass) []float64 {
	var out []float64
	if len(ps[0].points) == 0 {
		for _, p := range ps {
			out = append(out, ms(p.wall))
		}
	} else {
		byPoint := make([]float64, len(ps))
		for i := range ps[0].points {
			for j, p := range ps {
				byPoint[j] = ms(p.points[i])
			}
			out = append(out, median(byPoint))
		}
	}
	sort.Float64s(out)
	return out
}

func perLayer(plain, traced []pass, prof profileShares, hlsUS map[string]float64) map[string]metric {
	vals := map[string]float64{}
	byScenario := map[string][]float64{}
	var walls, tracedWalls []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		for id, d := range p.scenario {
			byScenario[id] = append(byScenario[id], d.Seconds())
		}
	}
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}
	for id, ds := range byScenario {
		vals["runner.scenario_s."+id] = median(ds)
	}
	for k, us := range hlsUS {
		vals["hls.run_us."+k] = us
	}
	// Counts are exact and the same in every pass; the first pass's stand.
	for k, v := range plain[0].counts {
		vals[k] = v
	}
	wall := median(walls)
	if ev, ok := plain[0].counts["sim.events"]; ok {
		vals["sim_events_per_s"] = ev / wall
	}
	if _, ok := plain[0].counts["cas.hits"]; ok {
		sorted := append([]float64{}, walls...)
		sort.Float64s(sorted)
		vals["cas.pass_ms_p50"] = percentile(sorted, 0.50) * 1e3
		vals["cas.pass_ms_p90"] = percentile(sorted, 0.90) * 1e3
	}
	for l, s := range prof.cpu {
		vals["cpu_share."+l] = s
	}
	for l, b := range prof.allocBytes {
		vals["alloc_mb."+l] = b / float64(len(traced)) / 1e6
	}
	vals["trace_overhead"] = median(tracedWalls) / wall

	defs := perLayerDefs()
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// median returns the median of xs; xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile interpolates linearly between the closest ranks of the
// sorted slice s.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns the three cut points of xs by the exclusive method,
// the default of Python's statistics.quantiles(xs, n=4). xs needs at
// least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
