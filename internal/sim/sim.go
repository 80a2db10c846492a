// Package sim provides the discrete-event simulation kernel that every
// other ECOSCALE substrate runs on.
//
// The kernel is deliberately small: a simulated clock, a priority queue of
// events, and cooperative "processes" expressed as callbacks. Determinism
// is a hard requirement — two runs with the same seed and the same event
// insertion order must produce identical traces — so ties in event time are
// broken by insertion sequence number, never by map iteration or scheduler
// whim.
//
// The hot path is allocation-free in steady state: events live in an
// index-addressed arena recycled through a free list (generation-counted
// EventIDs detect staleness), the priority queue is a flat 4-ary min-heap
// of plain structs rather than an interface-boxed container/heap, Cancel
// is O(1) lazy deletion (dead entries are skipped at pop time), and the
// AtCall/AfterCall variants let callers schedule a static function plus an
// argument without boxing a fresh closure per event. See docs/perf.md.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in picoseconds. Picosecond resolution lets cycle
// times of multi-GHz clocks be expressed exactly as integers (1 GHz = 1000
// ps/cycle) while an int64 still spans ~106 days of simulated time.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a simulated duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos converts a simulated duration to floating-point nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string {
	switch {
	case t == math.MaxInt64:
		return "∞"
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanos())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Forever is a sentinel meaning "no deadline".
const Forever Time = math.MaxInt64

// EventID identifies a scheduled event so it can be cancelled. It is a
// small value — an arena index plus the slot's generation at schedule
// time — not a pointer: holding one does not keep the event alive, and a
// stale id (fired, cancelled, or recycled slot) is detected by its
// generation and safely ignored. The zero EventID never matches anything.
type EventID struct {
	idx int32
	gen uint32
}

// eventSlot is one arena cell holding a scheduled event's callback. The
// common zero-alloc path stores a static function in afn plus its argument
// in arg; the closure path stores fn. Exactly one of fn/afn is set while
// the slot is live.
type eventSlot struct {
	fn  func()
	afn func(any)
	arg any
	gen uint32
	lp  int32 // owning logical process when the engine is in a Group; 0 otherwise
}

// heapEntry is one priority-queue element. The ordering key (at, key, seq)
// is embedded so sift operations never chase into the arena; slot+gen
// locate the callback and detect lazily-cancelled entries at pop time.
//
// key is 0 for every event of a standalone engine, which makes the order
// exactly the historical (at, seq) insertion-sequence tie-break. Engines
// that belong to a shard Group instead derive key and seq from the logical
// process (LP) the event belongs to — see shard.go — so that the order is
// a function of the simulated causality graph, not of how LPs happen to be
// partitioned across shards.
type heapEntry struct {
	at   Time
	key  uint64
	seq  uint64
	slot int32
	gen  uint32
}

func heLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine. An Engine is not safe for concurrent
// use: the simulated world is single-threaded by design (parallel hardware
// is modelled by interleaved events, not goroutines), which is what makes
// runs reproducible.
type Engine struct {
	now   Time
	seq   uint64
	heap  []heapEntry
	arena []eventSlot
	free  []int32
	live  int // scheduled, not yet fired or cancelled
	ran   uint64
	rng   *RNG

	useFree *useOp // resource.go: pooled Use/UseCall operations

	// Shard-group membership (see shard.go). grp is nil for a standalone
	// engine, which keeps the historical global-sequence ordering; inside
	// a Group, events are keyed by logical process so the schedule is
	// invariant under the shard count. curLP tracks the LP of the event
	// currently executing (or, before the run, the LP set by Group.At).
	grp   *Group
	shard int32
	curLP int32

	// Sampling hook (see SetSampler). sampleAt is Forever when no
	// sampler is installed, so the disabled cost is one comparison in
	// fire.
	sampler  func(now Time) Time
	sampleAt Time
}

// NewEngine returns an engine at time zero whose random source is seeded
// with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed), sampleAt: Forever}
}

// SetSampler installs fn as the engine's sampling hook: immediately
// before running the first event whose time is at or after nextAt, the
// engine calls fn(now); fn returns the next boundary to sample at, or
// Forever to stop. The hook schedules no events and never advances the
// clock, so installing it cannot change simulation results, event
// counts, or the final idle time — unlike a periodic self-rescheduling
// event, whose trailing tick would extend the run past the last real
// event. Passing a nil fn uninstalls the hook.
func (e *Engine) SetSampler(nextAt Time, fn func(now Time) Time) {
	e.sampler = fn
	if fn == nil {
		e.sampleAt = Forever
		return
	}
	e.sampleAt = nextAt
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// CurLP returns the logical process the currently executing event belongs
// to. It is 0 for a standalone engine; inside a Group it identifies which
// LP's causal chain is running, and is what Post uses as the message
// source.
func (e *Engine) CurLP() int32 { return e.curLP }

// NextAt returns the time of the earliest live pending event, or Forever
// when none remain.
func (e *Engine) NextAt() Time {
	e.prune()
	if len(e.heap) == 0 {
		return Forever
	}
	return e.heap[0].at
}

// runWindow fires every pending event strictly before bound. Unlike Run,
// the bound is exclusive and the clock is not advanced past the last fired
// event: the Group's window loop owns clock normalization.
func (e *Engine) runWindow(bound Time) {
	for {
		e.prune()
		if len(e.heap) == 0 || e.heap[0].at >= bound {
			return
		}
		e.fire()
	}
}

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// EventsRun reports how many events have fired so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports how many events are scheduled and not yet fired.
// Lazily-cancelled entries still sitting in the heap are not counted.
func (e *Engine) Pending() int { return e.live }

// alloc takes a slot from the free list, growing the arena when empty.
// Generations start at 1 so the zero EventID is never valid.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.arena = append(e.arena, eventSlot{gen: 1})
	return int32(len(e.arena) - 1)
}

// freeSlot recycles a slot: references are dropped so fired callbacks can
// be collected, and the generation bump invalidates every outstanding
// EventID and heap entry pointing at the slot.
func (e *Engine) freeSlot(idx int32) {
	s := &e.arena[idx]
	s.fn, s.afn, s.arg = nil, nil, nil
	s.gen++
	e.free = append(e.free, idx)
}

func (e *Engine) schedule(at Time, fn func(), afn func(any), arg any) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	idx := e.alloc()
	s := &e.arena[idx]
	s.fn, s.afn, s.arg = fn, afn, arg
	var key, seq uint64
	if g := e.grp; g != nil {
		// Grouped engine: the new event belongs to the LP that is
		// scheduling it, and is ordered by that LP's private sequence.
		// Both are properties of the causal chain that created the
		// event, so they do not depend on how LPs map to shards.
		lp := e.curLP
		s.lp = lp
		key = localKey(lp)
		seq = g.lpSeqs[lp]
		g.lpSeqs[lp]++
	} else {
		seq = e.seq
		e.seq++
	}
	e.push(heapEntry{at: at, key: key, seq: seq, slot: idx, gen: s.gen})
	e.live++
	return EventID{idx: idx, gen: s.gen}
}

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would corrupt causality silently otherwise.
func (e *Engine) At(at Time, fn func()) EventID {
	return e.schedule(at, fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.schedule(e.now+d, fn, nil, nil)
}

// AtCall schedules fn(arg) at absolute time at. With a statically
// allocated fn and a pointer-typed arg this path performs no heap
// allocation, unlike At, whose closure argument is typically boxed at the
// call site. It is the kernel's zero-alloc scheduling primitive.
func (e *Engine) AtCall(at Time, fn func(any), arg any) EventID {
	return e.schedule(at, nil, fn, arg)
}

// AfterCall schedules fn(arg) to run d after the current time; see AtCall.
func (e *Engine) AfterCall(d Time, fn func(any), arg any) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.schedule(e.now+d, nil, fn, arg)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually cancelled by this call. Cancellation is O(1): the slot is
// recycled immediately, while the heap entry goes stale and is discarded
// when it reaches the top of the queue.
func (e *Engine) Cancel(id EventID) bool {
	if id.gen == 0 || int(id.idx) >= len(e.arena) || e.arena[id.idx].gen != id.gen {
		return false
	}
	e.freeSlot(id.idx)
	e.live--
	return true
}

// push inserts an entry into the 4-ary min-heap.
func (e *Engine) push(he heapEntry) {
	q := append(e.heap, he)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !heLess(he, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = he
	e.heap = q
}

// pop removes and returns the heap minimum. The caller guarantees the
// heap is non-empty.
func (e *Engine) pop() heapEntry {
	q := e.heap
	top := q[0]
	n := len(q) - 1
	last := q[n]
	e.heap = q[:n]
	if n > 0 {
		q = q[:n]
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if heLess(q[j], q[m]) {
					m = j
				}
			}
			if !heLess(q[m], last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return top
}

// prune discards lazily-cancelled entries from the heap top, so that
// e.heap[0], when present, is always a live event.
func (e *Engine) prune() {
	for len(e.heap) > 0 && e.arena[e.heap[0].slot].gen != e.heap[0].gen {
		e.pop()
	}
}

// fire pops and runs the heap head, which the caller has verified live.
func (e *Engine) fire() {
	he := e.pop()
	s := &e.arena[he.slot]
	fn, afn, arg := s.fn, s.afn, s.arg
	e.curLP = s.lp
	e.freeSlot(he.slot)
	e.live--
	if he.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = he.at
	e.ran++
	if he.at >= e.sampleAt {
		e.sampleAt = e.sampler(he.at)
	}
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// Step fires the single earliest pending event. It reports false when no
// pending events remain.
func (e *Engine) Step() bool {
	e.prune()
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// Run fires events until the queue drains or the next event would be
// after deadline (use Forever for no deadline). It returns the final
// simulated time.
func (e *Engine) Run(deadline Time) Time {
	for {
		e.prune()
		if len(e.heap) == 0 || e.heap[0].at > deadline {
			break
		}
		e.fire()
	}
	if e.now < deadline && deadline != Forever {
		// Advance the clock to the deadline so back-to-back bounded runs
		// observe contiguous time.
		e.now = deadline
	}
	return e.now
}

// RunUntilIdle fires events until none remain and returns the final time.
func (e *Engine) RunUntilIdle() Time { return e.Run(Forever) }
