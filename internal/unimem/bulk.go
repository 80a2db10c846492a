package unimem

import (
	"ecoscale/internal/mem"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// The line pipeline. Every timed access — a single Read or Write, and
// each line of a stream — is a pooled lineOp carried
// through the memory system by static functions (sim AfterCall, noc
// SendCall, mem DRAM AccessCall), so a warmed space moves lines without
// allocating. Ops live on per-Worker free lists: an op returns to the
// list of the Worker whose LP retires it, so on a sharded machine each
// list is only touched by one LP.

// lineOp is one in-flight page-local access by Worker node.
type lineOp struct {
	s     *Space
	p     *page
	st    *streamOp // the stream this line belongs to, or nil
	node  int
	owner int
	addr  uint64
	size  int
	write bool   // store timing (Write and stream stores)
	data  []byte // Write's bytes; nil for timing-only accesses

	// The remote leg: DRAM bytes at the owner, then a response of
	// respBytes and the request's kind.
	dramBytes, respBytes int
	kind                 noc.Kind

	rdone func([]byte) // Read's callback
	done  func()       // Write's callback
	next  *lineOp
}

func (s *Space) getLine(node int) *lineOp {
	m := s.wm(node)
	op := m.lineFree
	if op == nil {
		op = &lineOp{s: s}
	} else {
		m.lineFree = op.next
		op.next = nil
	}
	op.node = node
	return op
}

func (s *Space) putLine(w int, op *lineOp) {
	m := s.wm(w)
	*op = lineOp{s: s, next: m.lineFree}
	m.lineFree = op
}

// access walks one line through the memory system. On a sharded machine
// a line whose page another Worker owns takes the cross-LP branch; every
// other line takes the timing switch below, shared by loads and stores
// (see Read for the cases).
func (s *Space) access(op *lineOp) {
	node := op.node
	p := s.pageOf(op.addr)
	owner := p.Owner()
	op.p, op.owner = p, owner
	off := op.addr % uint64(s.cfg.PageBytes)
	if s.net.Sharded() && owner != node {
		s.accessCrossLP(op, off)
		return
	}
	if op.data != nil {
		copy(p.data[off:], op.data) // data plane: applied immediately (see package doc)
		op.data = nil
	}
	w := s.wm(node)
	switch {
	case p.Cacher() == node:
		res := w.cache.Access(op.addr, op.write)
		s.handleEviction(node, res)
		if res.Hit {
			s.countAt(node, ctrCacheHits)
			s.engFor(node).AfterCall(s.cfg.CacheCfg.HitLatency, lineDone, op)
			return
		}
		s.countAt(node, ctrCacheFills)
		if owner == node {
			w.dram.AccessCall(mem.LineBytes, lineDone, op)
			return
		}
		// Line fill from the owner (write-allocate for a store: fetch the
		// line, then dirty it locally).
		s.remote(op, s.cfg.CtrlBytes, noc.Load, mem.LineBytes, mem.LineBytes)
	case owner == node:
		s.countAt(node, ctrLocalUncached)
		w.dram.AccessCall(op.size, lineDone, op)
	case op.write:
		// Uncached remote store: posted write + ack.
		s.countAt(node, ctrRemoteWrites)
		s.remote(op, op.size+s.cfg.CtrlBytes, noc.Store, op.size, s.cfg.CtrlBytes)
	default:
		// Uncached remote load: a round trip to the owner.
		s.countAt(node, ctrRemoteReads)
		s.remote(op, s.cfg.CtrlBytes, noc.Load, op.size, op.size)
	}
}

// remote sends op's reqBytes request to the page owner, where it
// accesses dramBytes of DRAM and answers with respBytes of the same kind.
func (s *Space) remote(op *lineOp, reqBytes int, kind noc.Kind, dramBytes, respBytes int) {
	op.kind, op.dramBytes, op.respBytes = kind, dramBytes, respBytes
	s.netFor(op.node).SendCall(op.node, op.owner, reqBytes, kind, lineAtOwner, op)
}

func lineAtOwner(a any) {
	op := a.(*lineOp)
	op.s.wm(op.owner).dram.AccessCall(op.dramBytes, lineRespond, op)
}

func lineRespond(a any) {
	op := a.(*lineOp)
	op.s.netFor(op.owner).SendCall(op.owner, op.node, op.respBytes, op.kind, lineDone, op)
}

// lineDone retires a line whose data has arrived; a Read's bytes are
// copied out of the page now, at delivery.
func lineDone(a any) {
	op := a.(*lineOp)
	var data []byte
	if op.rdone != nil {
		data = make([]byte, op.size)
		copy(data, op.p.data[op.addr%uint64(op.s.cfg.PageBytes):])
	}
	op.s.retire(op, data)
}

// retire recycles op, then notifies its stream or its caller.
func (s *Space) retire(op *lineOp, data []byte) {
	st, rdone, done := op.st, op.rdone, op.done
	s.putLine(op.node, op)
	switch {
	case st != nil:
		st.lineDone()
	case rdone != nil:
		rdone(data)
	case done != nil:
		done()
	}
}

// accessCrossLP is the sharded machine's cross-LP line: the page bytes
// are only touched at the owner's LP, so a load's bytes are captured
// there and travel in the response, and a store's bytes travel with the
// request and are applied there.
func (s *Space) accessCrossLP(op *lineOp, off uint64) {
	node, owner, p, size := op.node, op.owner, op.p, op.size
	if !op.write {
		s.countAt(node, ctrRemoteReads)
		capture := op.rdone != nil
		s.netFor(node).Send(node, owner, s.cfg.CtrlBytes, noc.Load, func() {
			s.wm(owner).dram.Access(size, func() {
				var buf []byte
				if capture {
					buf = make([]byte, size)
					copy(buf, p.data[off:])
				}
				s.netFor(owner).Send(owner, node, size, noc.Load, func() { s.retire(op, buf) })
			})
		})
		return
	}
	s.countAt(node, ctrRemoteWrites)
	buf := append([]byte(nil), op.data...) // nil for a timing-only store
	op.data = nil
	s.netFor(node).Send(node, owner, size+s.cfg.CtrlBytes, noc.Store, func() {
		copy(p.data[off:], buf)
		s.wm(owner).dram.Access(size, func() {
			s.netFor(owner).Send(owner, node, s.cfg.CtrlBytes, noc.Store, func() { s.retire(op, nil) })
		})
	})
}

// handleEviction charges the write-back cost of a dirty eviction from
// node's cache: to local DRAM when node owns the victim page, or across
// the interconnect to the victim's owner.
func (s *Space) handleEviction(node int, res mem.AccessResult) {
	if !res.Evicted || !res.WritebackNeeded {
		return
	}
	vp, ok := s.pages[res.EvictedAddr/uint64(s.cfg.PageBytes)]
	if !ok {
		return
	}
	s.countAt(node, ctrWritebacks)
	vo := vp.Owner()
	if vo == node {
		s.wm(node).dram.Access(mem.LineBytes, nil)
		return
	}
	op := s.getLine(node)
	op.owner = vo
	s.netFor(node).SendCall(node, vo, mem.LineBytes, noc.Store, evictLanded, op)
}

// evictLanded writes a dirty victim line into its owner's DRAM. The op
// retires at the owner's LP, so it joins the owner's free list.
func evictLanded(a any) {
	op := a.(*lineOp)
	s, vo := op.s, op.owner
	s.putLine(vo, op)
	s.wm(vo).dram.Access(mem.LineBytes, nil)
}

// streamOp is a pooled stream cursor: it issues the page-local lines of
// at most one cache line each in address order, keeping up to window in
// flight, and issues the next line inside each line's completion. A
// line never completes in the event that issued it.
type streamOp struct {
	s        *Space
	node     int
	write    bool
	data     []byte // StreamWrite's bytes; nil for timing-only streams
	base     uint64 // first address
	at       uint64 // next line's address
	left     int    // bytes not yet issued
	inFlight int
	start    sim.Time
	done     func()
	next     *streamOp
}

// stream starts a stream of size bytes at addr by worker node.
func (s *Space) stream(node int, addr uint64, size, window int, write bool, data []byte, done func()) {
	if size <= 0 {
		if done != nil {
			done()
		}
		return
	}
	if window <= 0 {
		window = 1
	}
	m := s.wm(node)
	st := m.streamFree
	if st == nil {
		st = &streamOp{}
	} else {
		m.streamFree = st.next
	}
	*st = streamOp{s: s, node: node, write: write, data: data,
		base: addr, at: addr, left: size, start: s.engFor(node).Now(), done: done}
	for st.inFlight < window && st.left > 0 {
		st.issue()
	}
}

// issue sends the stream's next line.
func (st *streamOp) issue() {
	s := st.s
	n := s.cfg.PageBytes - int(st.at%uint64(s.cfg.PageBytes))
	n = min(n, mem.LineBytes, st.left)
	op := s.getLine(st.node)
	op.st, op.addr, op.size, op.write = st, st.at, n, st.write
	if st.data != nil {
		off := st.at - st.base
		op.data = st.data[off : off+uint64(n)]
	}
	st.at += uint64(n)
	st.left -= n
	st.inFlight++
	s.access(op)
}

// lineDone refills the window, then completes the stream once its last
// line has landed: the span and histogram are recorded and the cursor
// recycled before done runs.
func (st *streamOp) lineDone() {
	if st.left > 0 {
		st.issue()
	}
	st.inFlight--
	if st.inFlight > 0 {
		return
	}
	s, node, done := st.s, st.node, st.done
	size := int(st.at - st.base)
	name := "stream-read"
	if st.write {
		name = "stream-write"
	}
	s.observeStream(node, name, st.start, size)
	m := s.wm(node)
	*st = streamOp{next: m.streamFree}
	m.streamFree = st
	if done != nil {
		done()
	}
}

// PeekRange reads size bytes starting at addr with no timing, across
// page boundaries; for result verification.
func (s *Space) PeekRange(addr uint64, size int) []byte {
	out := make([]byte, 0, size)
	for size > 0 {
		off := int(addr % uint64(s.cfg.PageBytes))
		n := min(size, s.cfg.PageBytes-off)
		out = append(out, s.pageOf(addr).data[off:off+n]...)
		addr += uint64(n)
		size -= n
	}
	return out
}

// StreamRead models a load of size bytes starting at addr by worker
// node, as a pipeline of line-sized requests with up to window in
// flight; done runs when the last line has arrived. It models timing
// only: callers that need the bytes Peek or PeekRange them afterwards.
func (s *Space) StreamRead(node int, addr uint64, size, window int, done func()) {
	s.stream(node, addr, size, window, false, nil, done)
}

// StreamWrite writes data starting at addr on behalf of worker node as a
// pipelined stream of line-sized stores with up to window in flight.
func (s *Space) StreamWrite(node int, addr uint64, data []byte, window int, done func()) {
	s.stream(node, addr, len(data), window, true, data, done)
}

// StreamWriteback is StreamWrite for an identity write-back: the same
// pipelined store traffic, but the bytes are never read or copied.
// Accelerators stream their results out as an identity write-back of
// the page-final data; on a sharded machine those bytes may only be read
// at the owner's LP, so the traffic, cache effects and counters are
// modeled here while the data plane stays put.
func (s *Space) StreamWriteback(node int, addr uint64, size, window int, done func()) {
	s.stream(node, addr, size, window, true, nil, done)
}

// observeStream records one completed stream as a DMA span and a
// latency-histogram sample.
func (s *Space) observeStream(node int, name string, start sim.Time, size int) {
	now := s.engFor(node).Now()
	if !s.net.Sharded() {
		// The shared tracer is not shard-safe (see observeCoh).
		s.Trace.Add(trace.Span{Name: name, Cat: trace.CatDMA,
			Start: int64(start), End: int64(now),
			PID: trace.WorkerPID(node), TID: trace.TIDDMA, Arg: int64(size)})
	}
	if r := s.regFor(node); r != nil {
		trace.LatencyHistogram(r, "lat.dma_us").Observe((now - start).Micros())
		r.Counter("unimem.stream_bytes").Add(uint64(size))
	}
}
