package core

import (
	"errors"
	"strings"
	"testing"

	"ecoscale/internal/fabric"
	"ecoscale/internal/fault"
	"ecoscale/internal/hls"
	"ecoscale/internal/noc"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
)

// heavyTask returns a CPU-bound task of ~55us software time, big enough
// that a mid-run fault lands while work is still in flight.
func heavyTask() *rts.Task {
	return &rts.Task{
		Kernel:   "scale",
		Bindings: map[string]float64{"N": 256},
		SWStats:  hls.RunStats{Ops: 50000, Flops: 25000, Loads: 10000, Stores: 10000},
	}
}

// A machine handed an empty fault plan must behave byte-identically to
// one that never saw the fault layer at all — the inertness guarantee
// the ecobench tables rely on.
func TestZeroFaultPlanInert(t *testing.T) {
	run := func(armEmpty bool) (string, sim.Time) {
		m := New(DefaultConfig(2, 2))
		if _, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 1); err != nil {
			t.Fatal(err)
		}
		if armEmpty {
			if n := m.InjectFaults(&fault.Plan{}); n != 0 {
				t.Fatalf("empty plan armed %d events", n)
			}
			if m.faults != nil {
				t.Fatal("empty plan materialized fault state")
			}
		}
		for i := 0; i < 8; i++ {
			m.Sched(i%m.Workers()).Submit(heavyTask(), nil)
		}
		end := m.Run()
		return m.Report(), end
	}
	plainReport, plainEnd := run(false)
	armedReport, armedEnd := run(true)
	if plainEnd != armedEnd {
		t.Fatalf("final time diverged: plain %v, empty-plan %v", plainEnd, armedEnd)
	}
	if plainReport != armedReport {
		t.Fatalf("reports diverged:\n--- plain ---\n%s\n--- empty plan ---\n%s", plainReport, armedReport)
	}
}

// Killing a Worker mid-run must lose no tasks: queued and in-flight
// software work evacuates to a live buddy and every completion callback
// fires exactly once, with no errors.
// A plan the machine's shape rejects panics in InjectFaults with
// Plan.Validate's message, before any fault state exists.
func TestInjectFaultsRejectsInvalidPlan(t *testing.T) {
	m := New(DefaultConfig(2, 2))
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.KillWorker, Worker: m.Workers()}}}
	want := plan.Validate(m.FaultShape())
	if want == nil {
		t.Fatal("out-of-range victim validated")
	}
	defer func() {
		if got := recover(); got != want.Error() {
			t.Errorf("panic = %v, want %q", got, want)
		}
		if m.faults != nil {
			t.Error("rejected plan materialized fault state")
		}
	}()
	m.InjectFaults(plan)
}

func TestKillWorkerConservesTasks(t *testing.T) {
	m := New(DefaultConfig(4, 1))
	const total = 24
	completed, failed := 0, 0
	for i := 0; i < total; i++ {
		m.Sched(i%4).Submit(heavyTask(), func(_ rts.Device, err error) {
			if err != nil {
				failed++
			}
			completed++
		})
	}
	m.InjectFaults(&fault.Plan{
		Events: []fault.Event{{At: 60 * sim.Microsecond, Kind: fault.KillWorker, Worker: 1}},
	})
	m.Run()
	if completed != total {
		t.Fatalf("completed %d of %d tasks", completed, total)
	}
	if failed != 0 {
		t.Fatalf("%d tasks completed with errors", failed)
	}
	if !m.Sched(1).Dead() {
		t.Fatal("worker 1 not dead after its kill event")
	}
	if got := m.sortedDead(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("dead set = %v", got)
	}
	if m.Reg.CounterTotal("fault.worker_deaths") != 1 {
		t.Error("fault.worker_deaths != 1")
	}
	// Work must have moved: either evacuated from the queue or rerouted
	// from in-flight execution.
	moved := m.Reg.CounterTotal("fault.tasks_evacuated") + m.Reg.CounterTotal("fault.tasks_rerouted")
	if moved == 0 {
		t.Error("no tasks evacuated or rerouted from the dead worker")
	}
	// A dead worker must reject new work by forwarding it.
	post := false
	m.Sched(1).Submit(heavyTask(), func(_ rts.Device, err error) {
		if err != nil {
			t.Errorf("post-death submission failed: %v", err)
		}
		post = true
	})
	m.Run()
	if !post {
		t.Error("post-death submission never completed")
	}
}

// Killing a Worker that owns UNIMEM pages must migrate them to the
// buddy; the data stays readable afterwards.
func TestKillWorkerEvacuatesPages(t *testing.T) {
	m := New(DefaultConfig(4, 1))
	addr := m.Space.Alloc(1, 8192) // two pages owned by worker 1
	m.Space.Poke(addr, []byte{0xAB, 0xCD})
	m.Sched(2).Submit(heavyTask(), nil) // keep the machine busy past the kill
	m.InjectFaults(&fault.Plan{
		Events: []fault.Event{{At: 5 * sim.Microsecond, Kind: fault.KillWorker, Worker: 1}},
	})
	m.Run()
	if got := m.Reg.CounterTotal("fault.pages_evacuated"); got != 2 {
		t.Fatalf("pages evacuated = %d, want 2", got)
	}
	if got := m.Space.PagesOwnedBy(1); len(got) != 0 {
		t.Fatalf("dead worker still owns pages %v", got)
	}
	b := m.Space.Peek(addr, 2)
	if b[0] != 0xAB || b[1] != 0xCD {
		t.Fatalf("evacuated page corrupted: % x", b)
	}
}

// A fabric-region failure under a loaded module must deregister it,
// defragment around the hole, and either redeploy the module or leave
// the policy to degrade to CPU — while every task still completes.
func TestRegionFailureRecovers(t *testing.T) {
	m := New(DefaultConfig(2, 1))
	m.SetPolicy(rts.PolicyHW{})
	inst, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 0)
	if err != nil {
		t.Fatal(err)
	}
	row, col := inst.Placement.Row, inst.Placement.Col
	const total = 12
	completed, failed := 0, 0
	for i := 0; i < total; i++ {
		m.Sched(i%2).Submit(heavyTask(), func(_ rts.Device, err error) {
			if err != nil {
				failed++
			}
			completed++
		})
	}
	m.InjectFaults(&fault.Plan{
		Events: []fault.Event{{At: 40 * sim.Microsecond, Kind: fault.FailRegion, Worker: 0, Row: row, Col: col}},
	})
	m.Run()
	if completed != total || failed != 0 {
		t.Fatalf("completed %d (failed %d) of %d tasks", completed, failed, total)
	}
	if m.Reg.CounterTotal("fault.region_failures") != 1 {
		t.Error("fault.region_failures != 1")
	}
	if m.Reg.CounterTotal("fault.modules_lost") != 1 {
		t.Errorf("fault.modules_lost = %d, want 1", m.Reg.CounterTotal("fault.modules_lost"))
	}
	redeployed := m.Reg.CounterTotal("fault.modules_redeployed")
	fallbacks := m.Reg.CounterTotal("fault.sw_fallbacks")
	if redeployed+fallbacks != 1 {
		t.Errorf("redeployed %d + fallbacks %d != 1", redeployed, fallbacks)
	}
	if m.Manager(0).Fab.FailedRegions() != 1 {
		t.Error("failed region not recorded in floorplan")
	}
}

// Checkpointing must produce snapshots while the machine is busy and a
// restore when a checkpointed Worker dies.
func TestCheckpointRestart(t *testing.T) {
	m := New(DefaultConfig(4, 1))
	const total = 24
	completed := 0
	for i := 0; i < total; i++ {
		m.Sched(i%4).Submit(heavyTask(), func(rts.Device, error) { completed++ })
	}
	m.InjectFaults(&fault.Plan{
		Checkpoint: fault.CheckpointConfig{Interval: 20 * sim.Microsecond, Bytes: 64 << 10},
		Events:     []fault.Event{{At: 70 * sim.Microsecond, Kind: fault.KillWorker, Worker: 2}},
	})
	m.Run()
	if completed != total {
		t.Fatalf("completed %d of %d tasks", completed, total)
	}
	if m.Reg.CounterTotal("fault.checkpoints") == 0 {
		t.Error("no checkpoints taken while busy")
	}
	if m.Reg.CounterTotal("fault.restores") != 1 {
		t.Errorf("restores = %d, want 1 (worker 2 was checkpointed before dying)",
			m.Reg.CounterTotal("fault.restores"))
	}
	if !strings.Contains(m.Report(), "faults:") {
		t.Error("report missing fault section")
	}
}

// The same seed must produce the same fault schedule and the same final
// machine state — resilience runs replay like fault-free ones.
func TestFaultScheduleDeterminism(t *testing.T) {
	run := func() (string, sim.Time) {
		m := New(DefaultConfig(4, 2))
		if _, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			m.Sched(i%m.Workers()).Submit(heavyTask(), nil)
		}
		m.InjectFaults(&fault.Plan{
			Seed:       42,
			Horizon:    2 * sim.Millisecond,
			WorkerMTBF: 200 * sim.Microsecond, MaxKills: 3,
			RegionMTBF: 150 * sim.Microsecond, MaxRegionFails: 4,
			LinkMTBF: 100 * sim.Microsecond, MaxFlaps: 5,
		})
		end := m.Run()
		return m.Report(), end
	}
	r1, e1 := run()
	r2, e2 := run()
	if e1 != e2 {
		t.Fatalf("final times diverged: %v vs %v", e1, e2)
	}
	if r1 != r2 {
		t.Fatalf("reports diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", r1, r2)
	}
}

// A link flap must delay traffic, not drop it: transfers issued into the
// outage complete after it lifts.
func TestLinkFlapDelaysTraffic(t *testing.T) {
	m := New(DefaultConfig(4, 2))
	m.Sched(0).Submit(heavyTask(), nil) // keep the run busy
	m.InjectFaults(&fault.Plan{
		Events: []fault.Event{{At: sim.Microsecond, Kind: fault.FlapLink, Worker: 0, Level: 0, Down: 30 * sim.Microsecond}},
	})
	doneAt := sim.Time(0)
	m.Eng.At(2*sim.Microsecond, func() {
		m.Net.Send(0, 1, 64, noc.Store, func() { doneAt = m.Eng.Now() })
	})
	m.Run()
	if doneAt == 0 {
		t.Fatal("message through flapped link never delivered")
	}
	if doneAt < 31*sim.Microsecond {
		t.Errorf("message delivered at %v, inside the outage window", doneAt)
	}
	if m.Reg.CounterTotal("fault.link_flaps") != 1 {
		t.Error("fault.link_flaps != 1")
	}
}

// Satellite regression: a Deploy that fails with ErrNoSpace must leave
// the machine fully functional — tasks degrade to software execution.
func TestDeployNoSpaceDegradesToCPU(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Fabric.Rows, cfg.Fabric.Cols = 2, 2
	cfg.Fabric.PerRegion = fabric.Resources{LUT: 1, FF: 1, BRAM: 1, DSP: 1}
	m := New(cfg)
	_, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 0)
	if err == nil {
		t.Fatal("deploy on a 4-region fabric of unit regions should not fit")
	}
	var ns *fabric.ErrNoSpace
	if !errors.As(err, &ns) {
		t.Fatalf("error %v is not fabric.ErrNoSpace", err)
	}
	const total = 6
	completed := 0
	for i := 0; i < total; i++ {
		m.Sched(i%2).Submit(heavyTask(), func(_ rts.Device, err error) {
			if err != nil {
				t.Errorf("degraded task failed: %v", err)
			}
			completed++
		})
	}
	m.Run()
	if completed != total {
		t.Fatalf("completed %d of %d tasks", completed, total)
	}
	var cpu, hw uint64
	m.EachSched(func(s *rts.Scheduler) {
		cpu += s.Executed(rts.DeviceCPU)
		hw += s.Executed(rts.DeviceHW)
	})
	if hw != 0 || cpu != total {
		t.Fatalf("cpu=%d hw=%d, want all %d on cpu", cpu, hw, total)
	}
}
