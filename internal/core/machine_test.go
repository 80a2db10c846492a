package core

import (
	"strings"
	"testing"

	"ecoscale/internal/accel"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
	"ecoscale/internal/unilogic"
)

const srcScale = `
kernel scale(global float* A, int N) {
    for (i = 0; i < N; i++) {
        A[i] = A[i] * 2.0;
    }
}`

func TestNewMachineWiring(t *testing.T) {
	m := New(DefaultConfig(4, 2))
	if m.Workers() != 8 {
		t.Fatalf("workers = %d", m.Workers())
	}
	if m.Space.NumWorkers() != 8 {
		t.Error("space not sized to workers")
	}
	if m.Comm.Size() != 8 {
		t.Error("world comm not sized to workers")
	}
	for w := 0; w < m.Workers(); w++ {
		if mgr := m.Manager(w); mgr.Worker != w {
			t.Errorf("manager %d mislabeled as %d", w, mgr.Worker)
		}
	}
	if m.Domain.Policy != unilogic.Shared {
		t.Error("default sharing policy should be UNILOGIC shared")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty fan-out did not panic")
		}
	}()
	New(Config{})
}

func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"empty fanout", func(c *Config) { c.FanOut = nil }, "tree shape"},
		{"zero fanout level", func(c *Config) { c.FanOut = []int{4, 0} }, "FanOut[1] = 0"},
		{"negative fanout level", func(c *Config) { c.FanOut = []int{-2, 2} }, "FanOut[0] = -2"},
		{"absurd workers", func(c *Config) { c.FanOut = []int{1 << 12, 1 << 13} }, "more than"},
		{"negative mapped bytes", func(c *Config) { c.MappedBytes = -1 }, "MappedBytes"},
		{"empty fabric", func(c *Config) { c.Fabric.Rows = 0 }, "fabric grid"},
		{"no tlb", func(c *Config) { c.SMMU.TLBEntries = 0 }, "TLB"},
		{"unaligned page", func(c *Config) { c.Unimem.PageBytes = 100 }, "PageBytes = 100"},
		{"no cache sets", func(c *Config) { c.Unimem.CacheCfg.Sets = 0 }, "cache 0 sets"},
		{"no dram bandwidth", func(c *Config) { c.Unimem.DRAMCfg.BytesPerNs = 0 }, "DRAM bandwidth"},
		{"negative header", func(c *Config) { c.Unimem.CtrlBytes = -1 }, "CtrlBytes"},
		{"no config port", func(c *Config) { c.Fabric.PortBytesPerNs = 0 }, "port bandwidth"},
		{"tiny smmu page", func(c *Config) { c.SMMU.PageBits = 1 }, "PageBits = 1"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(2, 1)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := DefaultConfig(4, 2).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// The flyweight invariants: construction materializes no Workers, the
// first touch materializes exactly one, and read-only aggregation
// (Report) wakes nobody.
func TestMachineLazyMaterialization(t *testing.T) {
	m := New(DefaultConfig(4, 4))
	if m.LiveWorkers() != 0 {
		t.Fatalf("construction materialized %d workers", m.LiveWorkers())
	}
	s := m.Sched(5)
	if s.Worker != 5 {
		t.Fatalf("Sched(5) returned worker %d", s.Worker)
	}
	if m.Sched(5) != s {
		t.Fatal("second touch built a different scheduler")
	}
	if m.LiveWorkers() != 1 {
		t.Fatalf("%d live workers after touching one", m.LiveWorkers())
	}
	live := m.LiveWorkers()
	_ = m.Report()
	if m.LiveWorkers() != live {
		t.Errorf("Report materialized workers: %d -> %d", live, m.LiveWorkers())
	}
	seen := 0
	m.EachSched(func(*rts.Scheduler) { seen++ })
	if seen != 1 {
		t.Errorf("EachSched visited %d schedulers, want 1", seen)
	}
}

// A run on a lazy machine must match the same run on a machine whose
// Workers were all forced into existence up front: materialization
// timing must not perturb the event stream, energy, or the report.
func TestLazyMatchesEagerMaterialization(t *testing.T) {
	run := func(pretouch bool) (string, sim.Time) {
		m := New(DefaultConfig(2, 2))
		if pretouch {
			for w := 0; w < m.Workers(); w++ {
				m.Sched(w)
				m.Manager(w)
			}
		}
		if _, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 1); err != nil {
			t.Fatal(err)
		}
		addr := m.Space.Alloc(0, 4096)
		for i := 0; i < 6; i++ {
			m.Sched(i%3).Submit(&rts.Task{
				Kernel:   "scale",
				Bindings: map[string]float64{"N": 256},
				Reads:    []accel.Span{{Addr: addr, Size: 2048}},
				SWStats:  hls.RunStats{Ops: 512, Flops: 256, Loads: 256, Stores: 256},
			}, nil)
		}
		end := m.Run()
		return m.Report(), end
	}
	lazyReport, lazyEnd := run(false)
	eagerReport, eagerEnd := run(true)
	if lazyEnd != eagerEnd {
		t.Fatalf("final time diverged: lazy %v, eager %v", lazyEnd, eagerEnd)
	}
	if lazyReport != eagerReport {
		t.Fatalf("reports diverged:\n--- lazy ---\n%s\n--- eager ---\n%s", lazyReport, eagerReport)
	}
}

func TestDeployKernelAndReport(t *testing.T) {
	m := New(DefaultConfig(2, 1))
	inst, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Worker != 1 {
		t.Error("deployed to wrong worker")
	}
	r := m.Report()
	if !strings.Contains(r, "2 workers") || !strings.Contains(r, "reconfig") {
		t.Errorf("report missing content:\n%s", r)
	}
}

func TestBadKernelDeploy(t *testing.T) {
	m := New(DefaultConfig(2, 1))
	if _, err := m.DeployKernel("nonsense", hls.DefaultDirectives(), 0); err == nil {
		t.Error("bad kernel source should fail")
	}
}

func TestSchedulersShareDomain(t *testing.T) {
	m := New(DefaultConfig(2, 2))
	if _, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 0); err != nil {
		t.Fatal(err)
	}
	// A scheduler on another compute node sees the instance via the
	// shared domain.
	for w := 0; w < m.Workers(); w++ {
		if m.Sched(w).Domain != m.Domain {
			t.Fatal("scheduler not wired to the shared domain")
		}
	}
	if len(m.Domain.Instances("scale")) != 1 {
		t.Error("instance invisible to domain")
	}
	_ = rts.DeviceCPU
}

func TestWorkerDiagram(t *testing.T) {
	m := New(DefaultConfig(2, 2))
	d := m.WorkerDiagram(3)
	for _, want := range []string{"Worker 3", "compute node 1", "SMMU", "reconfigurable block", "ACE-lite"} {
		if !strings.Contains(d, want) {
			t.Errorf("diagram missing %q:\n%s", want, d)
		}
	}
}
