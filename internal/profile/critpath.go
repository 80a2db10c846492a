// Package profile is the simulation profiler: it consumes the span
// tracer's record of one run and answers "where did the makespan go?".
// Three analyses build on each other:
//
//   - critical path (this file): a backward sweep over the recorded
//     activity spans partitions the traced window into contiguous
//     segments, each attributed to the most causally relevant activity
//     covering it — compute over reconfiguration over coherence over
//     interconnect over queueing — or to idle when nothing was running.
//     Segments exactly tile the window, so per-category shares sum to
//     the makespan by construction.
//   - utilization timelines (util.go): per-lane overlap counts rendered
//     as Perfetto counter tracks and busy fractions.
//   - sampling profiler (sampler.go): queue depths and outstanding-event
//     counts recorded on sim-clock boundaries through the engine's
//     sampling hook, with no events of its own.
//
// The profiler is an offline consumer: it never schedules events and
// never mutates simulation state, so enabling it cannot change results.
package profile

import (
	"sort"

	"ecoscale/internal/trace"
)

// Category buckets critical-path time the way the paper argues about
// bottlenecks: useful work, reconfiguration, coherence, interconnect,
// offload/queueing, runtime control, idle.
type Category int

// Critical-path categories, in report order.
const (
	Compute   Category = iota // CPU or fabric pipeline execution
	Reconfig                  // partial-reconfiguration port transfers
	Coherence                 // UNIMEM cacher hand-offs and migrations
	NoC                       // UNIMEM streams over the interconnect
	Queue                     // scheduler queueing + doorbell/translation
	Runtime                   // work-stealing transfers, control plane
	Idle                      // nothing traced was active
	numCategories
)

func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case Reconfig:
		return "reconfig"
	case Coherence:
		return "coherence"
	case NoC:
		return "noc"
	case Queue:
		return "queue"
	case Runtime:
		return "runtime"
	case Idle:
		return "idle"
	default:
		return "?"
	}
}

// categoryOf maps a span's trace category to a profiler category and an
// attribution priority (higher wins when spans overlap: actual work
// explains elapsed time better than the waiting layered around it).
// ok is false for spans that are not activities (task envelopes,
// routing/dispatch instants, daemon ticks).
func categoryOf(cat string) (c Category, prio int, ok bool) {
	switch cat {
	case trace.CatCompute:
		return Compute, 7, true
	case trace.CatReconfig:
		return Reconfig, 6, true
	case trace.CatCoh:
		return Coherence, 5, true
	case trace.CatDMA:
		return NoC, 4, true
	case trace.CatSMMU:
		return Queue, 3, true
	case trace.CatSteal:
		return Runtime, 2, true
	case trace.CatQueue:
		return Queue, 1, true
	default:
		return 0, 0, false
	}
}

// Segment is one contiguous critical-path interval attributed to a
// single activity (or to idle).
type Segment struct {
	Start, End int64
	Cat        Category
	// Name and PID identify the attributed span ("" / 0 for idle).
	Name string
	PID  int
}

// Dur returns the segment length in picoseconds.
func (s Segment) Dur() int64 { return s.End - s.Start }

// CritPath is the result of a critical-path extraction: an exact
// partition of the traced window into attributed segments.
type CritPath struct {
	// Start and End bound the analysis window: the earliest span start
	// and latest span end over all retained spans (including task
	// envelopes, so the window is the full traced makespan).
	Start, End int64
	// Segments tile [Start, End] in ascending time order.
	Segments []Segment

	byCat [numCategories]int64
}

// act is one candidate activity in the sweep.
type act struct {
	start, end int64
	cat        Category
	prio       int
	name       string
	pid        int
	seq        int // recording order, the final determinism tie-break
}

// actBetter orders the candidate heap: higher priority first, then the
// latest start (the most proximate cause), then recording order.
func actBetter(a, b act) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.start != b.start {
		return a.start > b.start
	}
	return a.seq < b.seq
}

// actHeap is a plain binary max-heap under actBetter.
type actHeap []act

func (h *actHeap) push(a act) {
	q := append(*h, a)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !actBetter(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *actHeap) pop() act {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && actBetter(q[l], q[m]) {
			m = l
		}
		if r < n && actBetter(q[r], q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// CriticalPath extracts the critical path from a run's retained spans.
//
// The sweep walks backward from the window's end. At each cursor it
// considers the activities covering the instant just before the cursor
// and picks the best under actBetter; the segment extends down to that
// activity's start or to the next activation boundary (the largest
// still-unprocessed span end), whichever is later, so a more causal
// activity ending mid-segment takes over at its end. Gaps with no
// active span are attributed to Idle. Every tie is broken
// deterministically, so the same spans always yield the same path.
func CriticalPath(spans []trace.Span) *CritPath {
	cp := &CritPath{}
	if len(spans) == 0 {
		return cp
	}

	// Window over all spans; activities filtered and ordered by end
	// descending (insertion order of the sweep).
	lo, hi := spans[0].Start, spans[0].End
	acts := make([]act, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
		c, prio, ok := categoryOf(s.Cat)
		if !ok || s.End <= s.Start {
			continue
		}
		acts = append(acts, act{start: s.Start, end: s.End,
			cat: c, prio: prio, name: s.Name, pid: s.PID, seq: i})
	}
	cp.Start, cp.End = lo, hi
	if hi <= lo {
		return cp
	}
	// Sort by end descending, recording order on ties.
	sortActs(acts)

	var heap actHeap
	cursor := hi
	i := 0
	for cursor > lo {
		for i < len(acts) && acts[i].end >= cursor {
			heap.push(acts[i])
			i++
		}
		// Discard activities that cannot cover any time below the
		// cursor. They start at or after it, and the cursor only
		// decreases, so they are permanently dead.
		for len(heap) > 0 && heap[0].start >= cursor {
			heap.pop()
		}
		if len(heap) == 0 {
			next := lo
			if i < len(acts) && acts[i].end > lo {
				next = acts[i].end
			}
			cp.addSegment(Segment{Start: next, End: cursor, Cat: Idle})
			cursor = next
			continue
		}
		best := heap[0]
		segLo := best.start
		if i < len(acts) && acts[i].end > segLo {
			// A not-yet-active span ends inside the segment; stop there
			// and re-evaluate, since it may attribute better.
			segLo = acts[i].end
		}
		cp.addSegment(Segment{Start: segLo, End: cursor,
			Cat: best.cat, Name: best.name, PID: best.pid})
		cursor = segLo
	}
	// The sweep built segments in reverse; flip to ascending time.
	for a, b := 0, len(cp.Segments)-1; a < b; a, b = a+1, b-1 {
		cp.Segments[a], cp.Segments[b] = cp.Segments[b], cp.Segments[a]
	}
	return cp
}

// sortActs orders activities by end descending, then recording order.
func sortActs(acts []act) {
	sortSlice(acts, func(a, b act) bool {
		if a.end != b.end {
			return a.end > b.end
		}
		return a.seq < b.seq
	})
}

// sortSlice sorts s under a deterministic comparator.
func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

func (cp *CritPath) addSegment(s Segment) {
	cp.byCat[s.Cat] += s.Dur()
	// Merge with the previous segment when it continues the same
	// attribution, keeping the segment list compact.
	if n := len(cp.Segments); n > 0 {
		p := &cp.Segments[n-1]
		if p.Start == s.End && p.Cat == s.Cat && p.Name == s.Name && p.PID == s.PID {
			p.Start = s.Start
			return
		}
	}
	cp.Segments = append(cp.Segments, s)
}

// Makespan returns the analysis window length in picoseconds.
func (cp *CritPath) Makespan() int64 { return cp.End - cp.Start }

// CategoryTime returns the critical-path picoseconds attributed to c.
func (cp *CritPath) CategoryTime(c Category) int64 { return cp.byCat[c] }

// Share is one category's critical-path slice.
type Share struct {
	Cat  Category
	Ps   int64
	Frac float64 // of the makespan; all shares (plus idle) sum to 1
}

// Shares returns every category with non-zero critical-path time, in
// report order (idle last). Fractions sum to exactly 1 up to float
// rounding because the segments tile the window.
func (cp *CritPath) Shares() []Share {
	mk := cp.Makespan()
	if mk <= 0 {
		return nil
	}
	var out []Share
	for c := Category(0); c < numCategories; c++ {
		if cp.byCat[c] == 0 {
			continue
		}
		out = append(out, Share{Cat: c, Ps: cp.byCat[c],
			Frac: float64(cp.byCat[c]) / float64(mk)})
	}
	return out
}

// Contributor is one (component, activity, category) aggregate on the
// critical path.
type Contributor struct {
	PID  int
	Name string
	Cat  Category
	Ps   int64
	Frac float64
}

// TopContributors aggregates critical-path time by (PID, name,
// category) and returns the k largest, ties broken by PID then name for
// stable output. Idle segments are excluded.
func (cp *CritPath) TopContributors(k int) []Contributor {
	type ckey struct {
		pid  int
		name string
		cat  Category
	}
	agg := map[ckey]int64{}
	for _, s := range cp.Segments {
		if s.Cat == Idle {
			continue
		}
		agg[ckey{s.PID, s.Name, s.Cat}] += s.Dur()
	}
	mk := cp.Makespan()
	out := make([]Contributor, 0, len(agg))
	for key, ps := range agg {
		fr := 0.0
		if mk > 0 {
			fr = float64(ps) / float64(mk)
		}
		out = append(out, Contributor{PID: key.pid, Name: key.name, Cat: key.cat, Ps: ps, Frac: fr})
	}
	sortSlice(out, func(a, b Contributor) bool {
		if a.Ps != b.Ps {
			return a.Ps > b.Ps
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Cat < b.Cat
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// WhatIf returns the estimated makespan fraction remaining if every
// critical-path segment of category c ran speedup× faster — the
// Amdahl's-law bound new/old = 1 - s + s/k, where s is c's share.
// Contention the speedup would reshuffle is not modelled; this is the
// optimistic bound a bottleneck claim must survive.
func (cp *CritPath) WhatIf(c Category, speedup float64) float64 {
	mk := cp.Makespan()
	if mk <= 0 || speedup <= 0 {
		return 1
	}
	s := float64(cp.byCat[c]) / float64(mk)
	return 1 - s + s/speedup
}
