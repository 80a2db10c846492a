// Command benchcmp compares two BENCH_sim.json reports (the committed
// baseline and a fresh run) and exits non-zero when the fresh run
// regresses past a tolerance band. It is the gate behind the CI
// bench-regression lane.
//
// Wall-clock numbers only mean something on the host that produced
// them, so time-based fields (ns/event, events/sec, speedups) are
// compared only when both reports come from an equivalent host — same
// CPU count and architecture. Allocation counts per event are
// deterministic properties of the code and are compared always, as are
// the shard-scaling determinism checksums (when both runs executed the
// same workload size) and the cache_warm hit/miss sanity check; the
// cache_warm cold/warm speedup is wall-clock and follows the same
// host-matching rule. The hls_run series (the compiled HLS executor on
// every library kernel) gates its RunStats checksums and allocations per
// run always, and its ns/op only between equivalent hosts whose runs
// had the same procs. The unimem_stream series (one UNIMEM stream of
// each kind) follows the same rule: allocations and simulated events per
// stream always, ns/op only on an equivalent host with the same procs.
//
// -wall=false drops the time-based comparisons even on an equivalent
// host: CI compares a -quick run against the full committed baseline, and
// short runs jitter far beyond any honest tolerance band, so its gate is
// the deterministic fields only.
//
// Usage:
//
//	benchcmp -old BENCH_sim.json -new /tmp/bench.json          # 15% band
//	benchcmp -old BENCH_sim.json -new /tmp/bench.json -tol 0.10
//	benchcmp -new /tmp/bench.json -wall=false                  # CI lane
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

type kernelEntry struct {
	Workload       string  `json:"workload"`
	Engine         string  `json:"engine"`
	Events         uint64  `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

type shardEntry struct {
	Shards   int     `json:"shards"`
	Procs    int     `json:"procs"`
	Events   uint64  `json:"events"`
	Speedup  float64 `json:"speedup_vs_1_shard"`
	Checksum string  `json:"checksum"`
}

type cacheWarmEntry struct {
	Procs   int     `json:"procs"`
	Points  uint64  `json:"points"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Speedup float64 `json:"speedup_cold_over_warm"`
}

type hlsRunEntry struct {
	Kernel      string  `json:"kernel"`
	N           int     `json:"n"`
	Procs       int     `json:"procs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Checksum    string  `json:"checksum"`
}

type unimemStreamEntry struct {
	Kind        string  `json:"kind"`
	Bytes       int     `json:"bytes"`
	Procs       int     `json:"procs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	EventsPerOp uint64  `json:"sim_events_per_op"`
}

type report struct {
	Schema       string              `json:"schema"`
	GoVersion    string              `json:"go_version"`
	GOARCH       string              `json:"goarch"`
	CPUs         int                 `json:"cpus"`
	Kernel       []kernelEntry       `json:"kernel"`
	Speedup      map[string]float64  `json:"speedup_events_per_sec"`
	ShardScaling []shardEntry        `json:"shard_scaling"`
	CacheWarm    *cacheWarmEntry     `json:"cache_warm"`
	HLSRun       []hlsRunEntry       `json:"hls_run"`
	UnimemStream []unimemStreamEntry `json:"unimem_stream"`
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	oldPath := flag.String("old", "BENCH_sim.json", "baseline report")
	newPath := flag.String("new", "", "fresh report to check")
	tol := flag.Float64("tol", 0.15, "relative regression tolerance")
	wall := flag.Bool("wall", true, "compare wall-clock fields (hosts must still match)")
	flag.Parse()
	if *newPath == "" {
		log.Fatal("benchcmp: -new is required")
	}

	oldRep, err := load(*oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newRep, err := load(*newPath)
	if err != nil {
		log.Fatal(err)
	}
	if oldRep.Schema != newRep.Schema {
		log.Fatalf("schema mismatch: %q vs %q", oldRep.Schema, newRep.Schema)
	}

	// Wall-clock fields are only comparable between equivalent hosts.
	wallOK := oldRep.CPUs == newRep.CPUs && oldRep.GOARCH == newRep.GOARCH
	if !wallOK {
		fmt.Printf("hosts differ (cpus %d/%s vs %d/%s): skipping wall-clock comparisons\n",
			oldRep.CPUs, oldRep.GOARCH, newRep.CPUs, newRep.GOARCH)
	}
	if !*wall {
		wallOK = false
		fmt.Println("wall-clock comparisons disabled (-wall=false)")
	}
	if oldRep.GoVersion != newRep.GoVersion {
		fmt.Printf("note: go versions differ (%s vs %s)\n", oldRep.GoVersion, newRep.GoVersion)
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Printf("FAIL: "+format+"\n", args...)
	}

	newKernel := map[string]kernelEntry{}
	for _, k := range newRep.Kernel {
		newKernel[k.Workload+"/"+k.Engine] = k
	}
	for _, o := range oldRep.Kernel {
		key := o.Workload + "/" + o.Engine
		n, ok := newKernel[key]
		if !ok {
			fail("kernel workload %s missing from new report", key)
			continue
		}
		// Allocation behavior is deterministic: compare with the relative
		// band plus a small absolute floor so zero-alloc workloads do not
		// trip on a stray measurement allocation.
		if n.AllocsPerEvent > o.AllocsPerEvent*(1+*tol)+0.05 {
			fail("%s: allocs/event %.3f -> %.3f", key, o.AllocsPerEvent, n.AllocsPerEvent)
		}
		if n.BytesPerEvent > o.BytesPerEvent*(1+*tol)+16 {
			fail("%s: bytes/event %.1f -> %.1f", key, o.BytesPerEvent, n.BytesPerEvent)
		}
		if wallOK && n.NsPerEvent > o.NsPerEvent*(1+*tol) {
			fail("%s: ns/event %.1f -> %.1f (>%.0f%% regression)",
				key, o.NsPerEvent, n.NsPerEvent, *tol*100)
		}
	}
	if wallOK {
		for w, ov := range oldRep.Speedup {
			if nv, ok := newRep.Speedup[w]; ok && nv < ov*(1-*tol) {
				fail("speedup[%s]: %.2fx -> %.2fx", w, ov, nv)
			}
		}
	}

	// Shard-scaling determinism: within each report every shard count
	// must have produced the same checksum; across reports the checksums
	// must agree whenever the runs were the same size.
	checkSeries := func(name string, s []shardEntry) {
		for _, e := range s[1:] {
			if e.Checksum != s[0].Checksum {
				fail("%s shard_scaling: checksum diverges at %d shards", name, e.Shards)
			}
		}
	}
	if len(oldRep.ShardScaling) > 0 {
		checkSeries("old", oldRep.ShardScaling)
	}
	if len(newRep.ShardScaling) > 0 {
		checkSeries("new", newRep.ShardScaling)
	}
	if len(oldRep.ShardScaling) > 0 && len(newRep.ShardScaling) > 0 {
		o, n := oldRep.ShardScaling[0], newRep.ShardScaling[0]
		if o.Events == n.Events && o.Checksum != n.Checksum {
			fail("shard_scaling: same workload, checksum %s -> %s", o.Checksum, n.Checksum)
		}
		if wallOK && o.Procs == n.Procs {
			for i := range oldRep.ShardScaling {
				if i >= len(newRep.ShardScaling) {
					break
				}
				ov, nv := oldRep.ShardScaling[i], newRep.ShardScaling[i]
				if ov.Shards == nv.Shards && nv.Speedup < ov.Speedup*(1-*tol) {
					fail("shard_scaling k=%d: speedup %.2fx -> %.2fx", ov.Shards, ov.Speedup, nv.Speedup)
				}
			}
		}
	} else if len(oldRep.ShardScaling) > 0 {
		fail("shard_scaling series missing from new report")
	}

	// cache_warm: hit/miss behavior is deterministic for a given suite
	// (every point misses cold, hits warm), so a warm run that still
	// misses is a correctness regression and is checked on every host.
	// The cold/warm speedup is wall-clock and follows the same
	// host-matching rule as shard_scaling: compared only when wallOK and
	// both runs had the same procs.
	if oldRep.CacheWarm != nil && newRep.CacheWarm != nil {
		o, n := oldRep.CacheWarm, newRep.CacheWarm
		if n.Hits == 0 || n.Misses == 0 {
			fail("cache_warm: degenerate run (hits=%d misses=%d) — cache not exercised", n.Hits, n.Misses)
		}
		if wallOK && o.Procs == n.Procs && o.Points == n.Points && n.Speedup < o.Speedup*(1-*tol) {
			fail("cache_warm: speedup %.1fx -> %.1fx", o.Speedup, n.Speedup)
		}
	} else if oldRep.CacheWarm != nil {
		fail("cache_warm series missing from new report")
	}

	// hls_run: the RunStats checksum at a given size and the allocations
	// per run are deterministic; ns/op follows the host-matching rule.
	newHLS := map[string]hlsRunEntry{}
	for _, e := range newRep.HLSRun {
		newHLS[e.Kernel] = e
	}
	for _, o := range oldRep.HLSRun {
		n, ok := newHLS[o.Kernel]
		if !ok {
			fail("hls_run %s missing from new report", o.Kernel)
			continue
		}
		if o.N == n.N && o.Checksum != n.Checksum {
			fail("hls_run %s: RunStats checksum %s -> %s", o.Kernel, o.Checksum, n.Checksum)
		}
		if n.AllocsPerOp > o.AllocsPerOp*(1+*tol)+0.05 {
			fail("hls_run %s: allocs/op %.2f -> %.2f", o.Kernel, o.AllocsPerOp, n.AllocsPerOp)
		}
		if wallOK && o.Procs == n.Procs && o.N == n.N && n.NsPerOp > o.NsPerOp*(1+*tol) {
			fail("hls_run %s: ns/op %.0f -> %.0f (>%.0f%% regression)",
				o.Kernel, o.NsPerOp, n.NsPerOp, *tol*100)
		}
	}

	// unimem_stream: allocations and simulated events per stream are
	// deterministic; ns/op follows the host-matching rule.
	newStream := map[string]unimemStreamEntry{}
	for _, e := range newRep.UnimemStream {
		newStream[e.Kind] = e
	}
	for _, o := range oldRep.UnimemStream {
		n, ok := newStream[o.Kind]
		if !ok {
			fail("unimem_stream %s missing from new report", o.Kind)
			continue
		}
		if o.Bytes == n.Bytes && o.EventsPerOp != n.EventsPerOp {
			fail("unimem_stream %s: events/op %d -> %d", o.Kind, o.EventsPerOp, n.EventsPerOp)
		}
		if n.AllocsPerOp > o.AllocsPerOp*(1+*tol)+0.05 {
			fail("unimem_stream %s: allocs/op %.2f -> %.2f", o.Kind, o.AllocsPerOp, n.AllocsPerOp)
		}
		if wallOK && o.Procs == n.Procs && o.Bytes == n.Bytes && n.NsPerOp > o.NsPerOp*(1+*tol) {
			fail("unimem_stream %s: ns/op %.0f -> %.0f (>%.0f%% regression)",
				o.Kind, o.NsPerOp, n.NsPerOp, *tol*100)
		}
	}

	if failures > 0 {
		fmt.Printf("%d regression(s) beyond the %.0f%% band\n", failures, *tol*100)
		os.Exit(1)
	}
	fmt.Println("benchcmp: no regressions")
}
