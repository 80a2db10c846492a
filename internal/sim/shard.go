package sim

// Conservative parallel execution. A Group partitions the simulated world
// into logical processes (LPs) — in the machine model, one LP per Compute
// Node plus a control LP — and distributes the LPs over K shard engines
// that run concurrently on OS threads.
//
// Synchronization is conservative, in the classic null-message sense, with
// a single global lookahead L (in ECOSCALE, the minimum NoC hop latency of
// any level that can carry cross-Compute-Node traffic): a shard that has
// advanced to time t cannot influence another shard before t+L, because
// every cross-shard interaction is a Post whose delivery time must be at
// least L in the future. The run therefore proceeds in windows: with M the
// global minimum pending-event time, every shard may safely fire all its
// events in [M, M+L) without hearing from the others; messages posted
// during the window land at or after the window bound and are merged into
// the receivers' heaps at the barrier, before the next window opens.
//
// Determinism is independent of the shard count. Events are ordered by
// (at, key, seq) where key and seq are derived from LP identity:
//
//   - an event scheduled by LP p's own causal chain gets key 2p and the
//     next value of p's private sequence counter;
//   - a message posted from LP s gets key 2s+1 and the next value of s's
//     private post counter, regardless of whether the destination shares
//     the sender's shard.
//
// Both are functions of the simulated causality graph only, so the set of
// (at, key, seq, callback) tuples a run produces is the same for every
// partitioning of LPs over shards; and because the triples are unique, the
// heap pop order is independent of insertion order (which is the only
// thing that differs between shard counts). Same-time cross-LP ties
// resolve by LP index, then locals-before-posts within an LP.
import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

func localKey(lp int32) uint64 { return uint64(uint32(lp)) << 1 }
func extKey(src int32) uint64  { return uint64(uint32(src))<<1 | 1 }

// post is one cross-shard message: an event to be merged into the
// destination shard's heap at the next window barrier. key and seq are
// assigned at Post time by the sender, so merge order is irrelevant.
type post struct {
	at    Time
	key   uint64
	seq   uint64
	dstLP int32
	fn    func()
	afn   func(any)
	arg   any
}

// Group is a set of shard engines run under a conservative time-window
// barrier. Construct with NewGroup, attach model state to the per-LP
// engines (EngineFor), seed initial events with At/AtCall, then Run.
//
// Concurrency contract: outside Run, the Group is single-threaded like an
// Engine. During Run, each shard engine is driven by exactly one goroutine
// and must only touch state owned by its own LPs; the only legal
// cross-shard interaction is Post (and reading the immutable topology of
// the Group itself).
type Group struct {
	lookahead Time
	seed      int64
	engines   []*Engine
	lpShard   []int32 // LP -> shard index
	lpSeqs    []uint64
	postSeqs  []uint64
	lpRNGs    []*RNG
	mail      [][]post // [src*K + dst]; src-owned during a window
	running   bool
	ran       bool // at least one Run has started (setup is over)

	// Window-loop coordination (multi-shard path only). windowB and done
	// are written by the coordinator between barriers; the barrier's
	// atomic sense publishes them to the shard goroutines.
	windowB Time
	done    bool
	barrier spinBarrier
	failed  atomic.Pointer[shardPanic] // first shard panic, rethrown by the coordinator
}

// BlockPartition maps nLPs logical processes onto shards contiguous
// blocks, balanced to within one LP. It is the default machine partition:
// consecutive Compute Nodes share NoC branches, so contiguous blocks keep
// sibling traffic intra-shard.
func BlockPartition(nLPs, shards int) []int32 {
	if shards < 1 {
		panic("sim: BlockPartition needs at least one shard")
	}
	if shards > nLPs {
		shards = nLPs
	}
	m := make([]int32, nLPs)
	for lp := range m {
		m[lp] = int32(lp * shards / nLPs)
	}
	return m
}

// NewGroup creates a shard group. lpShard maps each LP to a shard index;
// shard indices must be dense in [0, max+1). lookahead is the minimum
// simulated delay of any cross-shard interaction and must be positive —
// Post enforces it, and the window loop uses it as the safe horizon.
func NewGroup(seed int64, lookahead Time, lpShard []int32) *Group {
	if lookahead <= 0 {
		panic("sim: group lookahead must be positive")
	}
	if len(lpShard) == 0 {
		panic("sim: group needs at least one LP")
	}
	shards := 0
	for lp, s := range lpShard {
		if s < 0 {
			panic(fmt.Sprintf("sim: LP %d has negative shard %d", lp, s))
		}
		if int(s) >= shards {
			shards = int(s) + 1
		}
	}
	g := &Group{
		lookahead: lookahead,
		seed:      seed,
		lpShard:   append([]int32(nil), lpShard...),
		lpSeqs:    make([]uint64, len(lpShard)),
		postSeqs:  make([]uint64, len(lpShard)),
		lpRNGs:    make([]*RNG, len(lpShard)),
		mail:      make([][]post, shards*shards),
	}
	g.engines = make([]*Engine, shards)
	for i := range g.engines {
		e := NewEngine(seed + int64(i)*0x9e3779b9)
		e.grp = g
		e.shard = int32(i)
		g.engines[i] = e
	}
	return g
}

// Shards returns the number of shard engines.
func (g *Group) Shards() int { return len(g.engines) }

// Running reports whether a Run is in progress (events are firing).
func (g *Group) Running() bool { return g.running }

// SetupLP attributes subsequent synchronous scheduling on e to lp: model
// code that issues events outside any event context (setup, between runs)
// calls it so the events are keyed by the LP that owns the state they
// touch, keeping the schedule shard-count invariant. Panics during a Run,
// when the current LP is always the firing event's LP.
func (e *Engine) SetupLP(lp int32) {
	if g := e.grp; g != nil && g.running {
		panic("sim: SetupLP during Run")
	}
	e.curLP = lp
}

// Lookahead returns the conservative horizon L.
func (g *Group) Lookahead() Time { return g.lookahead }

// ShardOf returns the shard that owns lp.
func (g *Group) ShardOf(lp int32) int32 { return g.lpShard[lp] }

// EngineFor returns the engine that owns lp. Model state belonging to the
// LP (resources, queues) must be created on this engine.
func (g *Group) EngineFor(lp int32) *Engine { return g.engines[g.lpShard[lp]] }

// Shard returns shard engine i directly (for per-shard instrumentation).
func (g *Group) Shard(i int) *Engine { return g.engines[i] }

// LPRNG returns lp's deterministic random stream. Streams are derived
// from the group seed and the LP index alone, so random draws stay
// identical across shard counts as long as each LP only consumes its own
// stream (the same ownership rule as all other LP state).
func (g *Group) LPRNG(lp int32) *RNG {
	if r := g.lpRNGs[lp]; r != nil {
		return r
	}
	r := NewRNG(g.seed ^ (int64(lp)+1)*0x9e3779b97f4a7c)
	g.lpRNGs[lp] = r
	return r
}

// At schedules fn at absolute time at on lp's engine, attributed to lp.
// It is the setup-phase entry point (panics once Run has started: during
// a run, events on other LPs may only be created via Post, and events on
// the current LP via the engine's own At/After).
func (g *Group) At(lp int32, at Time, fn func()) EventID {
	return g.setupSchedule(lp, at, fn, nil, nil)
}

// AtCall is At with the zero-alloc static-function calling convention.
func (g *Group) AtCall(lp int32, at Time, fn func(any), arg any) EventID {
	return g.setupSchedule(lp, at, nil, fn, arg)
}

func (g *Group) setupSchedule(lp int32, at Time, fn func(), afn func(any), arg any) EventID {
	if g.running {
		panic("sim: Group.At during Run (use Post for cross-LP events)")
	}
	e := g.EngineFor(lp)
	e.curLP = lp
	return e.schedule(at, fn, afn, arg)
}

// Post schedules fn at absolute time at on dstLP, from the LP currently
// executing on e. The delivery time must be at least the group lookahead
// in the future — that bound is what makes the window barrier safe — and
// the message is ordered by (sender LP, sender post sequence), so the
// resulting schedule does not depend on whether dstLP shares the sender's
// shard. Posting to the sender's own LP is legal and still pays the
// lookahead: a model that posts must behave identically however the LPs
// are partitioned.
func (e *Engine) Post(dstLP int32, at Time, fn func()) {
	e.post(dstLP, at, fn, nil, nil)
}

// PostCall is Post with the zero-alloc static-function calling convention.
func (e *Engine) PostCall(dstLP int32, at Time, fn func(any), arg any) {
	e.post(dstLP, at, nil, fn, arg)
}

func (e *Engine) post(dstLP int32, at Time, fn func(), afn func(any), arg any) {
	g := e.grp
	if g == nil {
		panic("sim: Post on an engine outside a shard group")
	}
	if g.running && at < e.now+g.lookahead {
		panic(fmt.Sprintf("sim: post at %v violates lookahead %v from now %v",
			at, g.lookahead, e.now))
	}
	src := e.curLP
	p := post{
		at:    at,
		key:   extKey(src),
		seq:   g.postSeqs[src],
		dstLP: dstLP,
		fn:    fn,
		afn:   afn,
		arg:   arg,
	}
	g.postSeqs[src]++
	dstShard := g.lpShard[dstLP]
	if dstShard == e.shard {
		g.engines[dstShard].scheduleExt(p)
		return
	}
	box := &g.mail[int(e.shard)*len(g.engines)+int(dstShard)]
	*box = append(*box, p)
}

// scheduleExt merges one post into the engine's heap with the sender-
// assigned ordering key. Only called while the engine is quiescent (at a
// barrier) or from its own goroutine (same-shard post).
func (e *Engine) scheduleExt(p post) {
	if p.at < e.now {
		panic(fmt.Sprintf("sim: post at %v (LP %d -> LP %d) arrived before now %v on shard %d",
			p.at, p.key>>1, p.dstLP, e.now, e.shard))
	}
	idx := e.alloc()
	s := &e.arena[idx]
	s.fn, s.afn, s.arg = p.fn, p.afn, p.arg
	s.lp = p.dstLP
	e.push(heapEntry{at: p.at, key: p.key, seq: p.seq, slot: idx, gen: s.gen})
	e.live++
}

// drainMail merges every pending cross-shard post into its destination
// heap. Coordinator-only, between windows. Iteration order is irrelevant
// for determinism: each post carries a globally unique (at, key, seq).
func (g *Group) drainMail() {
	k := len(g.engines)
	for src := 0; src < k; src++ {
		for dst := 0; dst < k; dst++ {
			box := &g.mail[src*k+dst]
			for i := range *box {
				g.engines[dst].scheduleExt((*box)[i])
			}
			*box = (*box)[:0]
		}
	}
}

// nextAt returns the global minimum pending-event time across shards.
func (g *Group) nextAt() Time {
	m := Forever
	for _, e := range g.engines {
		if t := e.NextAt(); t < m {
			m = t
		}
	}
	return m
}

// Run fires events until every shard drains, or until the next global
// event would be after deadline (Forever for no deadline). On return all
// shard clocks agree: max(last fired, deadline if bounded). It returns
// that final time.
func (g *Group) Run(deadline Time) Time {
	g.running, g.ran = true, true
	if len(g.engines) == 1 {
		// Single shard: every post is same-shard, so the window loop
		// degenerates to plain heap order — run it directly. The results
		// are identical to the windowed path because the (at, key, seq)
		// order is total and window bounds never reorder it.
		g.engines[0].Run(deadline)
	} else {
		g.runWindows(deadline)
	}
	g.running = false
	final := Time(0)
	for _, e := range g.engines {
		if e.now > final {
			final = e.now
		}
	}
	if deadline != Forever && final < deadline {
		final = deadline
	}
	for _, e := range g.engines {
		e.now = final
	}
	return final
}

// RunUntilIdle fires events until none remain and returns the final time.
func (g *Group) RunUntilIdle() Time { return g.Run(Forever) }

// EventsRun reports the total events fired across all shards.
func (g *Group) EventsRun() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.ran
	}
	return n
}

// Pending reports the total live scheduled events across all shards,
// including undelivered cross-shard posts.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.live
	}
	for i := range g.mail {
		n += len(g.mail[i])
	}
	return n
}

// runWindows is the multi-shard conservative loop. The caller goroutine
// is both the coordinator and shard 0's driver; shards 1..K-1 get their
// own goroutines for the duration of the call. Two barrier crossings
// bound each window; between them (all shards parked) the coordinator
// merges mailboxes and computes the next horizon.
func (g *Group) runWindows(deadline Time) {
	k := len(g.engines)
	g.done = false
	g.barrier.reset(k)
	var workers sync.WaitGroup
	workers.Add(k - 1)
	for i := 1; i < k; i++ {
		go func() {
			defer workers.Done()
			g.shardLoop(i)
		}()
	}
	// The shard goroutines must be fully drained before this call returns:
	// a subsequent Run resets the barrier, and an undead worker still
	// spinning on the old generation would deadlock it.
	defer workers.Wait()
	var sense uint32
	// A coordinator panic (e.g. a lookahead violation caught in drainMail)
	// happens while the shards are parked at the barrier; release them
	// before unwinding into workers.Wait, or the panic becomes a deadlock.
	defer func() {
		if r := recover(); r != nil {
			if !g.done {
				g.done = true
				g.barrier.wait(&sense)
			}
			panic(r)
		}
	}()
	for {
		g.drainMail()
		m := g.nextAt()
		if m == Forever || m > deadline || g.failed.Load() != nil {
			g.done = true
			g.barrier.wait(&sense) // release shards so they observe done and exit
			break
		}
		b := m + g.lookahead
		if b < m { // overflow: saturate
			b = Forever
		}
		if deadline != Forever && b > deadline+1 {
			b = deadline + 1
		}
		g.windowB = b
		g.barrier.wait(&sense) // open the window
		g.runShardWindow(0, b)
		g.barrier.wait(&sense) // close the window
	}
	if p := g.failed.Load(); p != nil {
		g.failed.Store(nil)
		panic(p.String())
	}
}

// shardLoop drives one shard goroutine: park at the window barrier, fire
// the window, park again. A panic inside the window is captured so the
// other shards and the coordinator are not deadlocked at the barrier; the
// coordinator rethrows it.
func (g *Group) shardLoop(i int) {
	var sense uint32
	for {
		g.barrier.wait(&sense)
		if g.done {
			return
		}
		g.runShardWindow(i, g.windowB)
		g.barrier.wait(&sense)
	}
}

func (g *Group) runShardWindow(i int, bound Time) {
	defer func() {
		if r := recover(); r != nil {
			g.failed.CompareAndSwap(nil, &shardPanic{shard: i, val: r})
		}
	}()
	g.engines[i].runWindow(bound)
}

type shardPanic struct {
	shard int
	val   any
}

func (p *shardPanic) String() string {
	return fmt.Sprintf("sim: shard %d panicked: %v", p.shard, p.val)
}

// spinBarrier is a sense-reversing barrier for the window loop. Window
// lengths are one lookahead (tens of simulated nanoseconds — often only a
// handful of events), so the barrier must cost far less than a channel
// rendezvous: arrivals spin briefly on an atomic generation counter
// before yielding to the scheduler.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *spinBarrier) reset(n int) {
	b.n = int32(n)
	b.count.Store(0)
	b.gen.Store(0)
}

func (b *spinBarrier) wait(sense *uint32) {
	*sense++
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Store(*sense)
		return
	}
	for spins := 0; b.gen.Load() != *sense; spins++ {
		if spins > 256 {
			runtime.Gosched()
		}
	}
}
