package accel

import (
	"testing"

	"ecoscale/internal/fabric"
	"ecoscale/internal/hls"
	"ecoscale/internal/smmu"
)

// smallFabric swaps worker 0's manager for one with a 2x2-region fabric.
func smallFabric(r *rig) *Manager {
	cfg := fabric.DefaultConfig()
	cfg.Rows, cfg.Cols = 2, 2
	m := NewManager(0, fabric.New(r.eng, cfg, r.meter), r.space, smmu.New(smmu.DefaultConfig()), r.meter)
	r.mgrs[0] = m
	return m
}

// ensure2 deploys an impl on a specific manager and identity-maps it.
func ensure2(t testing.TB, r *rig, m *Manager, im *hls.Impl) *Instance {
	t.Helper()
	var inst *Instance
	m.Ensure(im, func(in *Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		inst = in
	})
	r.eng.RunUntilIdle()
	if inst == nil {
		t.Fatal("Ensure never completed")
	}
	identityMap(m, inst.StreamID)
	return inst
}

func TestPreemptIdleInstance(t *testing.T) {
	r := newRig(t, 2)
	im := mustImpl(t, srcScale, hls.DefaultDirectives())
	in := ensure(t, r, 0, im)
	name := in.Placement.Module.Name
	var ctx *SavedContext
	r.mgrs[0].Preempt(name, func(c *SavedContext, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ctx = c
	})
	r.eng.RunUntilIdle()
	if ctx == nil {
		t.Fatal("preempt never completed")
	}
	if ctx.StateBytes <= 0 {
		t.Error("no checkpoint state")
	}
	if r.mgrs[0].instances[name] != nil {
		t.Error("preempted module still occupies fabric")
	}
}

func TestPreemptDrainsInFlight(t *testing.T) {
	r := newRig(t, 2)
	im := mustImpl(t, srcScale, hls.DefaultDirectives())
	in := ensure(t, r, 0, im)
	addr := r.space.Alloc(0, 4096)
	completed := 0
	in.Invoke(0, CallSpec{Bindings: map[string]float64{"N": 2048}, Reads: []Span{{addr, 512}}},
		func(err error) {
			if err != nil {
				t.Error(err)
			}
			completed++
		})
	var ctx *SavedContext
	r.mgrs[0].Preempt(in.Placement.Module.Name, func(c *SavedContext, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ctx = c
		if completed != 1 {
			t.Error("preempt completed before the in-flight call drained")
		}
	})
	r.eng.RunUntilIdle()
	if ctx == nil || completed != 1 {
		t.Fatalf("drain failed: ctx=%v completed=%d", ctx != nil, completed)
	}
}

func TestPreemptDefersNewCallsAndResumeReplays(t *testing.T) {
	r := newRig(t, 2)
	im := mustImpl(t, srcScale, hls.DefaultDirectives())
	in := ensure(t, r, 0, im)
	addr := r.space.Alloc(0, 4096)
	name := in.Placement.Module.Name

	var ctx *SavedContext
	r.mgrs[0].Preempt(name, func(c *SavedContext, err error) { ctx = c })
	r.eng.RunUntilIdle()
	if ctx == nil {
		t.Fatal("preempt failed")
	}

	// Calls arriving on the suspended instance park in the context.
	completed := 0
	for i := 0; i < 3; i++ {
		in.Invoke(0, CallSpec{Bindings: map[string]float64{"N": 64}, Reads: []Span{{addr, 64}}},
			func(err error) {
				if err != nil {
					t.Error(err)
				}
				completed++
			})
	}
	r.eng.RunUntilIdle()
	if completed != 0 {
		t.Fatal("suspended instance executed calls")
	}
	if ctx.Pending() != 3 {
		t.Fatalf("context holds %d calls, want 3", ctx.Pending())
	}

	// Resume on ANOTHER worker: preemption composes with migration.
	identityMap(r.mgrs[1], 1000) // worker 1's first stream id
	var revived *Instance
	r.mgrs[1].Resume(ctx, func(in2 *Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		revived = in2
	})
	r.eng.RunUntilIdle()
	if revived == nil || revived.Worker != 1 {
		t.Fatal("resume on worker 1 failed")
	}
	if completed != 3 {
		t.Errorf("replayed %d of 3 deferred calls", completed)
	}
}

func TestPreemptMissingModule(t *testing.T) {
	r := newRig(t, 1)
	called := false
	r.mgrs[0].Preempt("nope", func(_ *SavedContext, err error) {
		called = true
		if err == nil {
			t.Error("preempting a missing module should fail")
		}
	})
	if !called {
		t.Error("callback not invoked")
	}
}

func TestPreemptFreesSpaceForAnotherModule(t *testing.T) {
	r := newRig(t, 1)
	// Shrink fabric so only one big module fits.
	small := smallFabric(r)
	big := hls.Directives{Unroll: 16, MemPorts: 4, Share: 1, Pipeline: true}
	imA := mustImpl(t, srcScale, big)
	inA := ensure2(t, r, small, imA)
	// A second module cannot fit while A occupies the fabric and is busy.
	addr := r.space.Alloc(0, 4096)
	inA.Invoke(0, CallSpec{Bindings: map[string]float64{"N": 4096}, Reads: []Span{{addr, 64}}}, nil)
	var ctx *SavedContext
	small.Preempt(inA.Placement.Module.Name, func(c *SavedContext, err error) { ctx = c })
	r.eng.RunUntilIdle()
	if ctx == nil {
		t.Fatal("preempt failed")
	}
	imB := mustImpl(t, "kernel other(global float* A, int N) { for (i = 0; i < N; i++) { A[i] = A[i] + 1.0; } }", big)
	okB := false
	small.Ensure(imB, func(_ *Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		okB = true
	})
	r.eng.RunUntilIdle()
	if !okB {
		t.Error("module B could not use the preempted region")
	}
}
