package fault

import (
	"reflect"
	"strings"
	"testing"

	"ecoscale/internal/sim"
)

var shape = Shape{Workers: 16, Rows: 8, Cols: 8, Levels: 2}

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan not empty")
	}
	if !(&Plan{Seed: 7, Horizon: sim.Millisecond}).Empty() {
		t.Error("plan with no rates/events/checkpoint not empty")
	}
	if (&Plan{WorkerMTBF: sim.Millisecond}).Empty() {
		t.Error("plan with a kill rate reads empty")
	}
	if (&Plan{Checkpoint: CheckpointConfig{Interval: sim.Millisecond}}).Empty() {
		t.Error("plan with checkpointing reads empty")
	}
	if got := (&Plan{}).Schedule(shape); got != nil {
		t.Errorf("empty plan scheduled %d events", len(got))
	}
}

func TestScheduleDeterministic(t *testing.T) {
	p := &Plan{
		Seed: 99, Horizon: 5 * sim.Millisecond,
		WorkerMTBF: 300 * sim.Microsecond, MaxKills: 4,
		RegionMTBF: 200 * sim.Microsecond, MaxRegionFails: 6,
		LinkMTBF: 250 * sim.Microsecond, MaxFlaps: 3,
	}
	a := p.Schedule(shape)
	b := p.Schedule(shape)
	if len(a) == 0 {
		t.Fatal("no events scheduled")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan produced different schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not time-sorted at %d", i)
		}
	}
	for _, e := range a {
		if e.Worker < 0 || e.Worker >= shape.Workers {
			t.Fatalf("victim %d out of range", e.Worker)
		}
		if e.At > p.Start+p.Horizon {
			t.Fatalf("stochastic event at %v past horizon", e.At)
		}
	}
}

// Each fault class draws from its own salted stream: changing one
// class's rate must not move another class's events.
func TestClassStreamsIndependent(t *testing.T) {
	base := &Plan{Seed: 5, Horizon: 5 * sim.Millisecond, WorkerMTBF: 400 * sim.Microsecond, MaxKills: 5}
	kills := func(evs []Event) []Event {
		var out []Event
		for _, e := range evs {
			if e.Kind == KillWorker {
				out = append(out, e)
			}
		}
		return out
	}
	a := kills(base.Schedule(shape))
	withLinks := *base
	withLinks.LinkMTBF = 100 * sim.Microsecond
	withLinks.MaxFlaps = 10
	b := kills(withLinks.Schedule(shape))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("adding link flaps changed the kill schedule")
	}
}

func TestExplicitEventsOffsetBySt(t *testing.T) {
	p := &Plan{
		Start:  sim.Millisecond,
		Events: []Event{{At: 10 * sim.Microsecond, Kind: KillWorker, Worker: 3}},
	}
	evs := p.Schedule(shape)
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].At != sim.Millisecond+10*sim.Microsecond {
		t.Errorf("explicit event at %v, want Start-relative placement", evs[0].At)
	}
	if evs[0].Worker != 3 {
		t.Errorf("victim %d", evs[0].Worker)
	}
}

func TestNegativeVictimsFilled(t *testing.T) {
	p := &Plan{Seed: 11, Events: []Event{
		{At: 1, Kind: KillWorker, Worker: -1},
		{At: 2, Kind: FailRegion, Worker: -1, Row: -1, Col: -1},
		{At: 3, Kind: FlapLink, Worker: -1, Level: -1},
	}}
	evs := p.Schedule(shape)
	for _, e := range evs {
		if e.Worker < 0 || e.Worker >= shape.Workers {
			t.Errorf("%v: worker not filled", e.Kind)
		}
		switch e.Kind {
		case FailRegion:
			if e.Row < 0 || e.Row >= shape.Rows || e.Col < 0 || e.Col >= shape.Cols {
				t.Error("region coordinates not filled")
			}
		case FlapLink:
			if e.Level < 0 || e.Level >= shape.Levels {
				t.Error("link level not filled")
			}
			if e.Down <= 0 {
				t.Error("flap duration not defaulted")
			}
		}
	}
	if !reflect.DeepEqual(evs, p.Schedule(shape)) {
		t.Error("filled victims not deterministic")
	}
}

func TestMaxCaps(t *testing.T) {
	p := &Plan{Seed: 1, Horizon: sim.Second, WorkerMTBF: sim.Microsecond, MaxKills: 7}
	if got := len(p.Schedule(shape)); got != 7 {
		t.Errorf("MaxKills=7 scheduled %d kills", got)
	}
}

func TestCheckpointNorm(t *testing.T) {
	c := CheckpointConfig{Interval: sim.Millisecond}.Norm()
	if c.Bytes != 256<<10 {
		t.Errorf("default bytes = %d", c.Bytes)
	}
	if c.RecomputeFraction != 0.5 {
		t.Errorf("default recompute fraction = %g", c.RecomputeFraction)
	}
	c2 := CheckpointConfig{Interval: sim.Millisecond, Bytes: 128, RecomputeFraction: 0.25}.Norm()
	if c2.Bytes != 128 || c2.RecomputeFraction != 0.25 {
		t.Error("Norm clobbered explicit values")
	}
}

func TestInjectorClampsPastEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.At(100*sim.Microsecond, func() {})
	eng.RunUntilIdle() // now = 100us
	var fired []int
	inj := NewInjector(eng, Hooks{KillWorker: func(w int) { fired = append(fired, w) }})
	inj.Arm([]Event{{At: 10 * sim.Microsecond, Kind: KillWorker, Worker: 4}})
	eng.RunUntilIdle()
	if len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("past-time event fired = %v", fired)
	}
	if inj.Fired != 1 {
		t.Errorf("Fired = %d", inj.Fired)
	}
}

func TestPlanValidate(t *testing.T) {
	valid := []*Plan{
		nil,
		{},
		{Seed: 3, Horizon: sim.Second, WorkerMTBF: sim.Microsecond, MaxKills: 7},
		{Horizon: 65536 * sim.Microsecond, LinkMTBF: sim.Microsecond},
		{Events: []Event{{Kind: FailRegion, Worker: 15, Row: 7, Col: -1}}},
	}
	for i, p := range valid {
		if err := p.Validate(shape); err != nil {
			t.Errorf("valid plan %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		name string
		p    Plan
		want string
	}{
		{"negative start", Plan{Start: -1}, "Start is negative"},
		{"negative horizon", Plan{Horizon: -sim.Millisecond}, "Horizon is negative"},
		{"negative mtbf", Plan{WorkerMTBF: -sim.Millisecond}, "WorkerMTBF is negative"},
		{"negative link down", Plan{LinkDown: -1}, "LinkDown is negative"},
		{"negative checkpoint", Plan{Checkpoint: CheckpointConfig{Interval: -1}}, "Checkpoint.Interval is negative"},
		{"huge start", Plan{Start: maxPlanTime + 1}, "Start"},
		{"negative cap", Plan{MaxFlaps: -2}, "MaxFlaps is negative"},
		{"negative snapshot", Plan{Checkpoint: CheckpointConfig{Bytes: -1}}, "Checkpoint.Bytes is negative"},
		{"unbounded kills", Plan{WorkerMTBF: sim.Nanosecond, Horizon: sim.Millisecond}, "Worker deaths expect 1000000 events"},
		{"default horizon", Plan{RegionMTBF: 100}, "region failures expect"},
		{"cap above limit", Plan{LinkMTBF: 1, MaxFlaps: maxStochasticEvents + 1}, "link flaps expect"},
		{"unknown kind", Plan{Events: []Event{{Kind: FlapLink + 1}}}, "unknown kind"},
		{"negative event time", Plan{Events: []Event{{At: -5}}}, "Events[0].At is negative"},
		{"worker outside", Plan{Events: []Event{{Worker: 16}}}, "Events[0].Worker 16"},
		{"row outside", Plan{Events: []Event{{Kind: FailRegion, Row: 8}}}, "Events[0].Row 8"},
		{"level outside", Plan{Events: []Event{{Kind: FlapLink, Level: 2}}}, "Events[0].Level 2"},
	}
	for _, c := range bad {
		err := c.p.Validate(shape)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
	// A victim drawn from an empty range is as unschedulable as one
	// outside it.
	if err := (&Plan{Events: []Event{{Worker: -1}}}).Validate(Shape{}); err == nil {
		t.Error("drawn victim on a Worker-less shape accepted")
	}
}

// FuzzPlan checks the plan surface: Validate never panics, and a plan it
// accepts schedules deterministically, in time order, with every victim
// inside the shape and no stochastic event past the horizon.
func FuzzPlan(f *testing.F) {
	f.Add(int64(1), int64(0), int64(sim.Millisecond), int64(100*sim.Microsecond), 0,
		int64(0), 0, int64(0), 0, int64(0), uint8(16), uint8(8), uint8(2), int64(5), uint8(0), 3, 1, 1)
	f.Add(int64(9), int64(sim.Millisecond), int64(5*sim.Millisecond), int64(300*sim.Microsecond), 4,
		int64(200*sim.Microsecond), 6, int64(250*sim.Microsecond), 3, int64(sim.Millisecond),
		uint8(16), uint8(8), uint8(2), int64(7), uint8(2), -1, -1, -1)
	f.Add(int64(0), int64(0), int64(sim.Millisecond), int64(sim.Nanosecond), 0,
		int64(0), 0, int64(0), 0, int64(0), uint8(4), uint8(2), uint8(1), int64(-1), uint8(1), 9, 0, 0)
	f.Fuzz(func(t *testing.T, seed, start, horizon, wMTBF int64, maxKills int,
		rMTBF int64, maxRegions int, lMTBF int64, maxFlaps int, down int64,
		workers, rows, levels uint8, evAt int64, evKind uint8, evWorker, evRow, evLevel int) {
		sh := Shape{Workers: int(workers % 65), Rows: int(rows % 17), Cols: int(rows % 13), Levels: int(levels % 5)}
		p := &Plan{
			Seed: seed, Start: sim.Time(start), Horizon: sim.Time(horizon),
			WorkerMTBF: sim.Time(wMTBF), MaxKills: maxKills,
			RegionMTBF: sim.Time(rMTBF), MaxRegionFails: maxRegions,
			LinkMTBF: sim.Time(lMTBF), LinkDown: sim.Time(down), MaxFlaps: maxFlaps,
			Events: []Event{{At: sim.Time(evAt), Kind: Kind(evKind % 4), Worker: evWorker,
				Row: evRow, Col: evRow, Level: evLevel}},
		}
		if p.Validate(sh) != nil {
			return
		}
		a := p.Schedule(sh)
		if !reflect.DeepEqual(a, p.Schedule(sh)) {
			t.Fatal("same plan produced different schedules")
		}
		end := p.Start + p.horizon()
		for i, e := range a {
			if i > 0 && e.At < a[i-1].At {
				t.Fatalf("schedule not time-sorted at %d", i)
			}
			if e.Worker < 0 || e.Worker >= sh.Workers {
				t.Fatalf("%v victim Worker %d outside %d", e.Kind, e.Worker, sh.Workers)
			}
			switch e.Kind {
			case FailRegion:
				if e.Row < 0 || e.Row >= sh.Rows || e.Col < 0 || e.Col >= sh.Cols {
					t.Fatalf("region (%d,%d) outside %dx%d", e.Row, e.Col, sh.Rows, sh.Cols)
				}
			case FlapLink:
				if e.Level < 0 || e.Level >= sh.Levels || e.Down <= 0 {
					t.Fatalf("flap level %d down %v outside %d levels", e.Level, e.Down, sh.Levels)
				}
			}
			if e.At < 0 || (e.At > end && e.At != p.Start+p.Events[0].At) {
				t.Fatalf("event at %v outside [0, %v]", e.At, end)
			}
		}
	})
}
