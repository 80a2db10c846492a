// Command montecarlo demonstrates UNILOGIC shared accelerators on the
// paper's financial use case (ref [18]): Monte-Carlo option pricing
// kernels deployed on a few Workers' fabrics and called by every Worker
// in the PGAS domain. It contrasts the UNILOGIC shared policy with the
// conventional private-accelerator policy under skewed demand (private
// Workers fall back to their CPUs), and shows the fine-grain pipelined
// sharing of the Virtualization block.
package main

import (
	"fmt"
	"log"

	"ecoscale"
	"ecoscale/internal/accel"
	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
	"ecoscale/internal/unilogic"
)

const (
	pathsPerCall = 8192
	batchesEach  = 4
	engines      = 4
)

func main() {
	w, err := ecoscale.KernelByName("montecarlo")
	if err != nil {
		log.Fatal(err)
	}
	dir := ecoscale.Directives{Unroll: 8, MemPorts: 8, Share: 1, Pipeline: true}

	// CPU reference cost for one batch, from the op mix the software
	// executor measures.
	rng := sim.NewRNG(3)
	args, _ := w.Make(pathsPerCall, rng)
	stats, err := hls.Run(w.Kernel(), args)
	if err != nil {
		log.Fatal(err)
	}
	cpuTime := hls.DefaultCPUModel().Time(stats)
	im, err := hls.Synthesize(w.Kernel(), dir)
	if err != nil {
		log.Fatal(err)
	}
	hwTime, _ := im.Time(map[string]float64{"N": pathsPerCall})
	fmt.Printf("one %d-path pricing batch: cpu %v, hw engine %v (II=%d)\n\n",
		pathsPerCall, cpuTime, hwTime, im.II())

	// E6: skewed demand. A burst of pricing requests lands on Worker 0
	// (end-of-day revaluation). Four engines exist in the Compute Node,
	// one per Worker 0-3. Under UNILOGIC's shared policy the burst
	// spreads across all four; under the private policy Worker 0 may
	// only use its own.
	runBurst := func(policy unilogic.Policy, virtualize bool, nEngines, nCalls, paths int) (sim.Time, float64) {
		cfg := ecoscale.DefaultConfig(8, 1)
		cfg.Sharing = policy
		cfg.Virtualize = virtualize
		m := ecoscale.New(cfg)
		for host := 0; host < nEngines; host++ {
			if _, err := m.DeployKernel(w.Source, dir, host); err != nil {
				log.Fatal(err)
			}
		}
		// The engine consumes a small seed/curve block and expands the
		// paths with its on-chip generator (the Maxeler-style curve MC
		// of ref [18]), so calls are compute-bound, not stream-bound.
		seed := m.Space.Alloc(0, 4096)
		out := m.Space.Alloc(0, 4096)
		start := m.Eng.Now() // deployments (reconfiguration) are done
		calls := 0
		for b := 0; b < nCalls; b++ {
			m.Domain.Call(0, "montecarlo", accel.CallSpec{
				Bindings: map[string]float64{"N": float64(paths)},
				Reads:    []accel.Span{{Addr: seed, Size: 1024}},
				Writes:   []accel.Span{{Addr: out, Size: 8}},
				Ops:      uint64(paths) * 8,
			}, func(err error) {
				if err != nil {
					log.Fatal(err)
				}
				calls++
			})
		}
		end := m.Run()
		if calls != nCalls {
			log.Fatalf("lost calls: %d of %d", calls, nCalls)
		}
		return end - start, m.Domain.Balance("montecarlo")
	}

	fmt.Printf("== E6: shared (UNILOGIC) vs private accelerators: %d-call burst at Worker 0, %d engines ==\n",
		8*batchesEach, engines)
	tShared, balShared := runBurst(unilogic.Shared, true, engines, 8*batchesEach, pathsPerCall)
	tPrivate, _ := runBurst(unilogic.Private, true, engines, 8*batchesEach, pathsPerCall)
	fmt.Printf("shared : completion %-12v engine balance (max/mean) %.2f\n", tShared, balShared)
	fmt.Printf("private: completion %-12v (only Worker 0's engine usable)\n", tPrivate)
	fmt.Printf("UNILOGIC speedup: %.2fx\n\n", float64(tPrivate)/float64(tShared))

	// E7: fine-grain sharing. Many short pricing calls (per-quote
	// updates) share one engine; the Virtualization block overlaps call
	// N+1's issue with call N's pipeline drain.
	fmt.Println("== E7: fine-grain pipelined sharing (Virtualization block), 256 short calls, 1 engine ==")
	tPipe, _ := runBurst(unilogic.Shared, true, 1, 256, 64)
	tSerial, _ := runBurst(unilogic.Shared, false, 1, 256, 64)
	fmt.Printf("virtualized (pipelined) : %v\n", tPipe)
	fmt.Printf("serialized  (no virt)   : %v\n", tSerial)
	fmt.Printf("pipelining speedup      : %.2fx\n", float64(tSerial)/float64(tPipe))

	if _, err := w.RunSW(4096, sim.NewRNG(9)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n(pricing results verified against the native golden model)")
}
