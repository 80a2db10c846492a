// Package fault is the deterministic fault-injection layer: a
// declarative Plan of Worker deaths, fabric-region failures, and NoC
// link flaps is expanded — off the simulation clock, with a per-class
// seeded RNG — into a concrete fault schedule, and an Injector arms that
// schedule on the engine. Determinism is the whole point: the same seed
// yields the same fault times and the same victims, so a resilience
// experiment is as replayable as a fault-free one. Recovery itself lives
// with the subsystems it exercises (rts evacuation, unimem page
// migration, fabric re-floorplanning); this package only decides what
// breaks, when.
package fault

import (
	"fmt"
	"sort"

	"ecoscale/internal/sim"
)

// Kind classifies an injected fault.
type Kind int

// Fault kinds.
const (
	// KillWorker fail-stops a Worker: CPU, fabric, and DRAM ownership all
	// need recovery.
	KillWorker Kind = iota
	// FailRegion permanently disables one reconfigurable region of a
	// Worker's fabric, killing the module placed there.
	FailRegion
	// FlapLink takes one interconnect link out of service transiently;
	// traffic queues behind the outage and drains when it lifts.
	FlapLink
)

func (k Kind) String() string {
	switch k {
	case KillWorker:
		return "kill-worker"
	case FailRegion:
		return "fail-region"
	default:
		return "flap-link"
	}
}

// Event is one concrete scheduled fault.
type Event struct {
	At   sim.Time
	Kind Kind
	// Worker is the victim Worker (all kinds).
	Worker int
	// Row, Col name the failed region (FailRegion).
	Row, Col int
	// Level is the interconnect level of the flapped link (FlapLink).
	Level int
	// Down is the outage duration (FlapLink).
	Down sim.Time
}

// CheckpointConfig parameterizes periodic checkpoint/restart.
type CheckpointConfig struct {
	// Interval is the checkpoint period; 0 disables checkpointing.
	Interval sim.Time
	// Bytes is the per-Worker snapshot size transferred to the buddy.
	Bytes int
	// RecomputeFraction is the share of the time since the last
	// checkpoint (or since t=0 without one) a restarted Worker's lost
	// work costs to redo.
	RecomputeFraction float64
}

// Norm fills config defaults: 256 KiB snapshots, half the lost interval
// recomputed.
func (c CheckpointConfig) Norm() CheckpointConfig {
	if c.Bytes <= 0 {
		c.Bytes = 256 << 10
	}
	if c.RecomputeFraction <= 0 {
		c.RecomputeFraction = 0.5
	}
	return c
}

// Plan declares the faults to inject. Stochastic rates (MTBFs) are
// expanded into concrete events by Schedule using only the plan's own
// seed; explicit Events are merged in as-is. The zero Plan is inert.
type Plan struct {
	// Seed drives every random draw of the expansion; the engine's RNG is
	// never touched, so arming a plan cannot perturb workload randomness.
	Seed int64
	// Start offsets the whole schedule (e.g. past the deployment phase).
	Start sim.Time
	// Horizon bounds the window after Start in which stochastic faults
	// occur. Explicit Events are not clipped.
	Horizon sim.Time

	// WorkerMTBF is the mean time between Worker deaths; 0 disables.
	WorkerMTBF sim.Time
	// MaxKills caps stochastic Worker deaths; 0 means no cap.
	MaxKills int

	// RegionMTBF is the mean time between fabric-region failures.
	RegionMTBF sim.Time
	// MaxRegionFails caps stochastic region failures; 0 means no cap.
	MaxRegionFails int

	// LinkMTBF is the mean time between link flaps.
	LinkMTBF sim.Time
	// LinkDown is each flap's outage duration (default 50µs).
	LinkDown sim.Time
	// MaxFlaps caps stochastic link flaps; 0 means no cap.
	MaxFlaps int

	// Checkpoint enables periodic checkpointing when Interval > 0.
	Checkpoint CheckpointConfig

	// Events are explicit faults merged into the schedule. Negative
	// victim fields (Worker, Row/Col, Level) are drawn from the seed.
	Events []Event
}

// Empty reports whether the plan injects nothing and checkpoints
// nothing — the machine must behave byte-identically to one that never
// saw the plan.
func (p *Plan) Empty() bool {
	return p == nil ||
		(p.WorkerMTBF == 0 && p.RegionMTBF == 0 && p.LinkMTBF == 0 &&
			len(p.Events) == 0 && p.Checkpoint.Interval == 0)
}

// Shape describes the machine the schedule draws victims from.
type Shape struct {
	Workers    int
	Rows, Cols int
	// Levels is the interconnect depth (tree MaxHops); 0 disables flaps.
	Levels int
}

// Limits Validate enforces. maxPlanTime bounds every duration and
// offset so that no sum Schedule forms, nor any exponential draw it adds
// (at most ~37 MTBFs), can overflow sim.Time; it is about 20 hours of
// simulated time. maxStochasticEvents bounds the expected size of each
// stochastic class that its Max* cap leaves unbounded.
const (
	maxPlanTime         = sim.Time(1) << 56
	maxStochasticEvents = 1 << 16
)

// Validate reports the first reason the plan cannot be scheduled on a
// machine of the given shape: a negative or oversized time or count, an
// unknown event kind, an explicit victim outside the shape, or a
// stochastic class whose expected event count over the horizon exceeds
// maxStochasticEvents while its Max* cap does not bound it. A nil plan
// is valid.
func (p *Plan) Validate(sh Shape) error {
	if p == nil {
		return nil
	}
	times := []struct {
		name string
		t    sim.Time
	}{
		{"Start", p.Start}, {"Horizon", p.Horizon},
		{"WorkerMTBF", p.WorkerMTBF}, {"RegionMTBF", p.RegionMTBF},
		{"LinkMTBF", p.LinkMTBF}, {"LinkDown", p.LinkDown},
		{"Checkpoint.Interval", p.Checkpoint.Interval},
	}
	for _, f := range times {
		if err := checkTime(f.name, f.t); err != nil {
			return err
		}
	}
	counts := []struct {
		name string
		n    int
	}{
		{"MaxKills", p.MaxKills}, {"MaxRegionFails", p.MaxRegionFails},
		{"MaxFlaps", p.MaxFlaps}, {"Checkpoint.Bytes", p.Checkpoint.Bytes},
	}
	for _, f := range counts {
		if f.n < 0 {
			return fmt.Errorf("fault: %s is negative (%d)", f.name, f.n)
		}
	}
	horizon := p.horizon()
	classes := []struct {
		name string
		mtbf sim.Time
		max  int
	}{
		{"Worker deaths", p.WorkerMTBF, p.MaxKills},
		{"region failures", p.RegionMTBF, p.MaxRegionFails},
		{"link flaps", p.LinkMTBF, p.MaxFlaps},
	}
	for _, c := range classes {
		if c.mtbf == 0 || (c.max > 0 && c.max <= maxStochasticEvents) {
			continue
		}
		if expected := horizon / c.mtbf; expected > maxStochasticEvents {
			return fmt.Errorf("fault: %s expect %d events over the %v horizon (MTBF %v), more than %d; raise the MTBF, shorten the horizon or set its Max* cap",
				c.name, expected, horizon, c.mtbf, maxStochasticEvents)
		}
	}
	for i, e := range p.Events {
		if err := checkTime(fmt.Sprintf("Events[%d].At", i), e.At); err != nil {
			return err
		}
		if err := checkTime(fmt.Sprintf("Events[%d].Down", i), e.Down); err != nil {
			return err
		}
		if e.Kind < KillWorker || e.Kind > FlapLink {
			return fmt.Errorf("fault: Events[%d] has unknown kind %d", i, int(e.Kind))
		}
		if err := checkVictim(i, "Worker", e.Worker, sh.Workers); err != nil {
			return err
		}
		switch e.Kind {
		case FailRegion:
			if err := checkVictim(i, "Row", e.Row, sh.Rows); err != nil {
				return err
			}
			if err := checkVictim(i, "Col", e.Col, sh.Cols); err != nil {
				return err
			}
		case FlapLink:
			if err := checkVictim(i, "Level", e.Level, sh.Levels); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkTime(name string, t sim.Time) error {
	if t < 0 {
		return fmt.Errorf("fault: %s is negative (%v)", name, t)
	}
	if t > maxPlanTime {
		return fmt.Errorf("fault: %s %v exceeds the %v limit", name, t, maxPlanTime)
	}
	return nil
}

// checkVictim accepts an explicit victim index inside [0, n), or a
// negative one that Schedule draws from a non-empty range.
func checkVictim(i int, field string, v, n int) error {
	if v >= n || (v < 0 && n <= 0) {
		return fmt.Errorf("fault: Events[%d].%s %d is outside the machine's %d", i, field, v, n)
	}
	return nil
}

// horizon is the stochastic window Schedule uses: Horizon, or 10ms when
// unset.
func (p *Plan) horizon() sim.Time {
	if p.Horizon <= 0 {
		return 10 * sim.Millisecond
	}
	return p.Horizon
}

// Per-class seed salts: each fault class gets an independent stream, so
// e.g. raising the link-flap rate cannot shift which Workers die.
const (
	saltKill   = 0x6b696c6c
	saltRegion = 0x72656769
	saltLink   = 0x6c696e6b
	saltFill   = 0x66696c6c
)

// Schedule expands the plan into the concrete, time-sorted fault list
// for a machine of the given shape. Pure: no engine, no global state —
// calling it twice yields identical slices. The plan must pass Validate
// for the shape; otherwise the expansion may be unbounded.
func (p *Plan) Schedule(sh Shape) []Event {
	if p.Empty() {
		return nil
	}
	var out []Event
	horizon := p.horizon()
	if p.WorkerMTBF > 0 && sh.Workers > 0 {
		rng := sim.NewRNG(p.Seed ^ saltKill)
		t := p.Start
		for n := 0; p.MaxKills == 0 || n < p.MaxKills; n++ {
			t += sim.Time(rng.ExpFloat64() * float64(p.WorkerMTBF))
			if t > p.Start+horizon {
				break
			}
			out = append(out, Event{At: t, Kind: KillWorker, Worker: rng.Intn(sh.Workers)})
		}
	}
	if p.RegionMTBF > 0 && sh.Workers > 0 && sh.Rows > 0 && sh.Cols > 0 {
		rng := sim.NewRNG(p.Seed ^ saltRegion)
		t := p.Start
		for n := 0; p.MaxRegionFails == 0 || n < p.MaxRegionFails; n++ {
			t += sim.Time(rng.ExpFloat64() * float64(p.RegionMTBF))
			if t > p.Start+horizon {
				break
			}
			out = append(out, Event{At: t, Kind: FailRegion,
				Worker: rng.Intn(sh.Workers), Row: rng.Intn(sh.Rows), Col: rng.Intn(sh.Cols)})
		}
	}
	if p.LinkMTBF > 0 && sh.Workers > 0 && sh.Levels > 0 {
		rng := sim.NewRNG(p.Seed ^ saltLink)
		down := p.LinkDown
		if down <= 0 {
			down = 50 * sim.Microsecond
		}
		t := p.Start
		for n := 0; p.MaxFlaps == 0 || n < p.MaxFlaps; n++ {
			t += sim.Time(rng.ExpFloat64() * float64(p.LinkMTBF))
			if t > p.Start+horizon {
				break
			}
			out = append(out, Event{At: t, Kind: FlapLink,
				Worker: rng.Intn(sh.Workers), Level: rng.Intn(sh.Levels), Down: down})
		}
	}
	if len(p.Events) > 0 {
		rng := sim.NewRNG(p.Seed ^ saltFill)
		for _, e := range p.Events {
			if e.Worker < 0 && sh.Workers > 0 {
				e.Worker = rng.Intn(sh.Workers)
			}
			if e.Kind == FailRegion {
				if e.Row < 0 && sh.Rows > 0 {
					e.Row = rng.Intn(sh.Rows)
				}
				if e.Col < 0 && sh.Cols > 0 {
					e.Col = rng.Intn(sh.Cols)
				}
			}
			if e.Kind == FlapLink {
				if e.Level < 0 && sh.Levels > 0 {
					e.Level = rng.Intn(sh.Levels)
				}
				if e.Down <= 0 {
					e.Down = 50 * sim.Microsecond
				}
			}
			e.At += p.Start
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}
