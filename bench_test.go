// Benchmarks regenerating every experiment of the reproduction (one per
// table/figure/claim; see DESIGN.md §3 for the index). Each benchmark
// reruns its experiment's full simulation per iteration, so ns/op is the
// host cost of regenerating that experiment, and the table itself is
// printed once under -v via b.Log.
//
// Run them all:
//
//	go test -bench=. -benchmem
package ecoscale_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ecoscale"
	"ecoscale/internal/experiments"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// benchExperiment reruns one experiment sequentially per iteration, so
// ns/op stays the host cost of regenerating that experiment on one
// core; BenchmarkSuiteParallel measures the pooled path.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	s, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl *trace.Table
	for i := 0; i < b.N; i++ {
		tbl, err = runner.Run(context.Background(), s, runner.Options{Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	if tbl != nil {
		b.Log("\n" + tbl.String())
	}
}

// benchSuite regenerates every experiment table per iteration at the
// given point-level parallelism.
func benchSuite(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, s := range experiments.Registry() {
			if _, err := runner.Run(context.Background(), s, runner.Options{Parallel: parallel}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }
func BenchmarkSuiteParallel(b *testing.B)   { benchSuite(b, 0) }

func BenchmarkE1Partitioning(b *testing.B)   { benchExperiment(b, "E1") }
func BenchmarkE2Concurrency(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3Coherence(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4SmallTransfers(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5RemoteAccel(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6Sharing(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7Pipelining(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Compression(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9Defrag(b *testing.B)         { benchExperiment(b, "E9") }
func BenchmarkE10Dispatch(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11LazySched(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Chaining(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13Exascale(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14EndToEnd(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15HLSDSE(b *testing.B)        { benchExperiment(b, "E15") }

// Substrate micro-benchmarks: host-side cost of the building blocks.

func BenchmarkSimEngineEvents(b *testing.B) {
	eng := sim.NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(1, tick)
		}
	}
	b.ResetTimer()
	eng.At(0, tick)
	eng.RunUntilIdle()
}

// BenchmarkMachineEndToEnd drives the whole stack in steady state: one
// persistent 8-worker machine executes a batch of 32 vecadd tasks per
// iteration through the model-driven scheduler, so ns/op is the host
// cost of simulating a batch and the events/sec metric is whole-machine
// kernel throughput (the number the internal/sim rewrite moves).
func BenchmarkMachineEndToEnd(b *testing.B) {
	w, err := ecoscale.KernelByName("vecadd")
	if err != nil {
		b.Fatal(err)
	}
	m := ecoscale.New(ecoscale.DefaultConfig(4, 2))
	if _, err := m.DeployKernel(w.Source, w.DefaultDir, 0); err != nil {
		b.Fatal(err)
	}
	m.SetPolicy(ecoscale.PolicyModel)
	rng := sim.NewRNG(7)
	args, _ := w.Make(4096, rng)
	st, err := hls.Run(w.Kernel(), args)
	if err != nil {
		b.Fatal(err)
	}
	m.Run() // settle deployment/reconfiguration before timing
	ev0 := m.Eng.EventsRun()
	done := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			task := &rts.Task{
				Kernel:   "vecadd",
				Bindings: map[string]float64{"N": 4096},
				SWStats:  st,
			}
			m.Sched(j%m.Workers()).Submit(task, func(rts.Device, error) { done++ })
		}
		m.Run()
	}
	b.StopTimer()
	if done != b.N*32 {
		b.Fatalf("completed %d tasks, want %d", done, b.N*32)
	}
	b.ReportMetric(float64(m.Eng.EventsRun()-ev0)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkMachineBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ecoscale.New(ecoscale.DefaultConfig(8, 4))
		if m.Workers() != 32 {
			b.Fatal("bad machine")
		}
	}
}

func BenchmarkHLSSynthesizeMatMul(b *testing.B) {
	w, err := ecoscale.KernelByName("matmul")
	if err != nil {
		b.Fatal(err)
	}
	k := w.Kernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hls.Synthesize(k, w.DefaultDir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelRunVecAdd(b *testing.B) {
	w, err := ecoscale.KernelByName("vecadd")
	if err != nil {
		b.Fatal(err)
	}
	k := w.Kernel()
	rng := sim.NewRNG(1)
	args, _ := w.Make(1024, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hls.Run(k, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeployKernel(b *testing.B) {
	w, err := ecoscale.KernelByName("vecadd")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m := ecoscale.New(ecoscale.DefaultConfig(2, 1))
		if _, err := m.DeployKernel(w.Source, w.DefaultDir, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA1StreamWindow(b *testing.B) { benchExperiment(b, "A1") }
func BenchmarkA2AccelCaching(b *testing.B) { benchExperiment(b, "A2") }
func BenchmarkA3TreeShape(b *testing.B)    { benchExperiment(b, "A3") }
func BenchmarkA4PageSize(b *testing.B)     { benchExperiment(b, "A4") }

func BenchmarkE16Irregular(b *testing.B) { benchExperiment(b, "E16") }

func BenchmarkA5LinkCapacity(b *testing.B) { benchExperiment(b, "A5") }

func BenchmarkR1FaultRate(b *testing.B)     { benchExperiment(b, "R1") }
func BenchmarkR2CkptInterval(b *testing.B)  { benchExperiment(b, "R2") }
func BenchmarkR3Evacuation(b *testing.B)    { benchExperiment(b, "R3") }
func BenchmarkR4Fragmentation(b *testing.B) { benchExperiment(b, "R4") }

// BenchmarkMachineFootprint is the flyweight acceptance series: live
// heap bytes per Worker of a freshly constructed (untouched) machine at
// weak-scaling sizes up to 131k Workers. Construction materializes no
// per-Worker components, so the per-Worker cost is a few index slots;
// compare across commits to catch O(workers) state creeping back into
// the spine. `make scale-smoke` checks the same 131k point under a hard
// memory budget.
func BenchmarkMachineFootprint(b *testing.B) {
	for _, shape := range []struct{ wpc, nodes int }{
		{64, 16},   // 1k workers
		{128, 128}, // 16k workers
		{256, 512}, // 131k workers
	} {
		workers := shape.wpc * shape.nodes
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var m *ecoscale.Machine
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				m = ecoscale.New(ecoscale.DefaultConfig(shape.wpc, shape.nodes))
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			if m.Workers() != workers || m.LiveWorkers() != 0 {
				b.Fatalf("machine %d workers (%d live), want %d (0 live)",
					m.Workers(), m.LiveWorkers(), workers)
			}
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(workers), "bytes/worker")
			runtime.KeepAlive(m)
		})
	}
}
