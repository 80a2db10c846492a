package fault

import (
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// CkptHooks connect the checkpointer to the machine. All callbacks are
// required except the trace plumbing on the Checkpointer itself.
type CkptHooks struct {
	// Busy reports whether the machine still has outstanding work; the
	// checkpointer stops ticking when it goes false so an idle machine
	// drains (a restartable sim must not self-perpetuate events).
	Busy func() bool
	// Workers lists the Workers to snapshot this round, sorted ascending
	// (live Workers with state worth saving).
	Workers func() []int
	// Buddy names the Worker holding w's checkpoint copy.
	Buddy func(w int) int
	// Pause and Resume quiesce a Worker's dispatch around its snapshot —
	// the checkpoint-interval cost visible in makespan.
	Pause  func(w int)
	Resume func(w int)
	// Transfer moves the snapshot bytes from w to its buddy and calls
	// done when they land.
	Transfer func(from, to, bytes int, done func())
}

// Checkpointer periodically snapshots Worker state to a buddy Worker.
// Cost model: each round pauses every active Worker for the duration of
// its own snapshot transfer (coordinated checkpointing with per-Worker
// resume); on a death, the restart penalty shrinks from "recompute since
// t=0" to "restore the snapshot + recompute since the last checkpoint".
type Checkpointer struct {
	Cfg CheckpointConfig
	// Trace, when non-nil, records one ckpt span per snapshot.
	Trace *trace.Tracer
	// Reg, when non-nil, receives fault.checkpoint* counters.
	Reg *trace.Registry

	eng   *sim.Engine
	hooks CkptHooks
	last  map[int]sim.Time
	// Rounds and Checkpoints count completed ticks and per-Worker
	// snapshots.
	Rounds      int
	Checkpoints int
	running     bool
}

// NewCheckpointer creates a checkpointer; call Start to begin ticking.
func NewCheckpointer(eng *sim.Engine, cfg CheckpointConfig, hooks CkptHooks) *Checkpointer {
	return &Checkpointer{Cfg: cfg.Norm(), eng: eng, hooks: hooks, last: map[int]sim.Time{}}
}

// Start begins periodic checkpointing; a no-op when Interval <= 0.
func (c *Checkpointer) Start() {
	if c.Cfg.Interval <= 0 || c.running {
		return
	}
	c.running = true
	c.eng.After(c.Cfg.Interval, c.tick)
}

// Has reports whether w has a completed checkpoint.
func (c *Checkpointer) Has(w int) bool { _, ok := c.last[w]; return ok }

// LastAt returns the snapshot time of w's most recent checkpoint.
func (c *Checkpointer) LastAt(w int) sim.Time { return c.last[w] }

func (c *Checkpointer) tick() {
	if !c.hooks.Busy() {
		// Idle machine: stop rather than keep the engine alive forever.
		c.running = false
		return
	}
	c.Rounds++
	snap := c.eng.Now()
	for _, w := range c.hooks.Workers() {
		w := w
		c.hooks.Pause(w)
		c.hooks.Transfer(w, c.hooks.Buddy(w), c.Cfg.Bytes, func() {
			c.last[w] = snap
			c.Checkpoints++
			if c.Trace != nil {
				c.Trace.Add(trace.Span{Name: "checkpoint", Cat: trace.CatCkpt,
					Start: int64(snap), End: int64(c.eng.Now()),
					PID: trace.WorkerPID(w), TID: trace.TIDDMA, Arg: int64(c.Cfg.Bytes)})
			}
			if c.Reg != nil {
				c.Reg.Counter("fault.checkpoints").Inc()
				c.Reg.Counter("fault.checkpoint_bytes").Add(uint64(c.Cfg.Bytes))
			}
			c.hooks.Resume(w)
		})
	}
	c.eng.After(c.Cfg.Interval, c.tick)
}
