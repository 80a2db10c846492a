package unimem

// This file preserves the line-stream implementation that preceded the
// pooled streamOp/lineOp pipeline, as a test oracle: the differential
// test runs it against the production streams and requires identical
// completion times, event counts, counters and DRAM traffic. It must
// stay semantically frozen; do not optimize it.

import (
	"ecoscale/internal/mem"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
)

func (s *Space) oldSplitSpan(addr uint64, size, chunk int) []oldSpan {
	if chunk <= 0 {
		chunk = mem.LineBytes
	}
	var out []oldSpan
	for size > 0 {
		pageRem := s.cfg.PageBytes - int(addr%uint64(s.cfg.PageBytes))
		n := size
		if n > pageRem {
			n = pageRem
		}
		if n > chunk {
			n = chunk
		}
		out = append(out, oldSpan{addr: addr, size: n})
		addr += uint64(n)
		size -= n
	}
	return out
}

type oldSpan struct {
	addr uint64
	size int
}

func (s *Space) oldStreamRead(node int, addr uint64, size, window int, done func(data []byte)) {
	if size <= 0 {
		if done != nil {
			done(nil)
		}
		return
	}
	if window <= 0 {
		window = 1
	}
	eng := s.engFor(node)
	start := eng.Now()
	spans := s.oldSplitSpan(addr, size, mem.LineBytes)
	buf := make([]byte, size)
	wg := sim.NewWaitGroup(eng, len(spans))
	inFlight := sim.NewResource(eng, "stream-read", window)
	base := addr
	for _, sp := range spans {
		sp := sp
		inFlight.Acquire(func() {
			s.oldRead(node, sp.addr, sp.size, func(data []byte) {
				copy(buf[sp.addr-base:], data)
				inFlight.Release()
				wg.DoneOne()
			})
		})
	}
	wg.Wait(func() {
		s.observeStream(node, "stream-read", start, size)
		if done != nil {
			done(buf)
		}
	})
}

func (s *Space) oldStreamWrite(node int, addr uint64, data []byte, window int, done func()) {
	if len(data) == 0 {
		if done != nil {
			done()
		}
		return
	}
	if window <= 0 {
		window = 1
	}
	eng := s.engFor(node)
	start := eng.Now()
	spans := s.oldSplitSpan(addr, len(data), mem.LineBytes)
	wg := sim.NewWaitGroup(eng, len(spans))
	inFlight := sim.NewResource(eng, "stream-write", window)
	base := addr
	for _, sp := range spans {
		sp := sp
		inFlight.Acquire(func() {
			s.oldWrite(node, sp.addr, data[sp.addr-base:uint64(sp.size)+sp.addr-base], func() {
				inFlight.Release()
				wg.DoneOne()
			})
		})
	}
	wg.Wait(func() {
		s.observeStream(node, "stream-write", start, len(data))
		if done != nil {
			done()
		}
	})
}

func (s *Space) oldStreamWriteback(node int, addr uint64, size, window int, done func()) {
	if size <= 0 {
		if done != nil {
			done()
		}
		return
	}
	if window <= 0 {
		window = 1
	}
	eng := s.engFor(node)
	start := eng.Now()
	spans := s.oldSplitSpan(addr, size, mem.LineBytes)
	wg := sim.NewWaitGroup(eng, len(spans))
	inFlight := sim.NewResource(eng, "stream-write", window)
	for _, sp := range spans {
		sp := sp
		inFlight.Acquire(func() {
			s.oldWriteBack(node, sp.addr, sp.size, func() {
				inFlight.Release()
				wg.DoneOne()
			})
		})
	}
	wg.Wait(func() {
		s.observeStream(node, "stream-write", start, size)
		if done != nil {
			done()
		}
	})
}

func (s *Space) oldRead(node int, addr uint64, size int, done func(data []byte)) {
	s.checkSpan(addr, size)
	p := s.pageOf(addr)
	owner := p.Owner()
	off := addr % uint64(s.cfg.PageBytes)
	if s.net.Sharded() && owner != node {
		// Cross-LP load: the bytes are captured at the owner's LP — the
		// only LP that touches page data — and travel in the response.
		s.countAt(node, ctrRemoteReads)
		s.netFor(node).Send(node, owner, s.cfg.CtrlBytes, noc.Load, func() {
			s.wm(owner).dram.Access(size, func() {
				buf := make([]byte, size)
				copy(buf, p.data[off:])
				s.netFor(owner).Send(owner, node, size, noc.Load, func() {
					if done != nil {
						done(buf)
					}
				})
			})
		})
		return
	}
	w := s.wm(node)
	deliver := func() {
		if done != nil {
			buf := make([]byte, size)
			copy(buf, p.data[off:])
			done(buf)
		}
	}
	switch {
	case p.Cacher() == node:
		res := w.cache.Access(addr, false)
		s.oldHandleEviction(node, p, res)
		if res.Hit {
			s.countAt(node, ctrCacheHits)
			s.engFor(node).After(s.cfg.CacheCfg.HitLatency, deliver)
			return
		}
		s.countAt(node, ctrCacheFills)
		if owner == node {
			w.dram.Access(mem.LineBytes, deliver)
			return
		}
		s.net.Send(node, owner, s.cfg.CtrlBytes, noc.Load, func() {
			s.wm(owner).dram.Access(mem.LineBytes, func() {
				s.net.Send(owner, node, mem.LineBytes, noc.Load, deliver)
			})
		})
	case owner == node:
		s.countAt(node, ctrLocalUncached)
		w.dram.Access(size, deliver)
	default:
		s.countAt(node, ctrRemoteReads)
		s.net.Send(node, owner, s.cfg.CtrlBytes, noc.Load, func() {
			s.wm(owner).dram.Access(size, func() {
				s.net.Send(owner, node, size, noc.Load, deliver)
			})
		})
	}
}

func (s *Space) oldWrite(node int, addr uint64, data []byte, done func()) {
	s.checkSpan(addr, len(data))
	p := s.pageOf(addr)
	owner := p.Owner()
	off := addr % uint64(s.cfg.PageBytes)
	if s.net.Sharded() && owner != node {
		// Cross-LP store: the bytes travel with the request and are
		// applied at the owner's LP (see the page doc above) instead of
		// at issue time.
		s.countAt(node, ctrRemoteWrites)
		buf := append([]byte(nil), data...)
		s.netFor(node).Send(node, owner, len(data)+s.cfg.CtrlBytes, noc.Store, func() {
			copy(p.data[off:], buf)
			s.wm(owner).dram.Access(len(buf), func() {
				s.netFor(owner).Send(owner, node, s.cfg.CtrlBytes, noc.Store, func() {
					if done != nil {
						done()
					}
				})
			})
		})
		return
	}
	w := s.wm(node)
	copy(p.data[off:], data) // data plane: applied immediately (see package doc)
	finish := func() {
		if done != nil {
			done()
		}
	}
	switch {
	case p.Cacher() == node:
		res := w.cache.Access(addr, true)
		s.oldHandleEviction(node, p, res)
		if res.Hit {
			s.countAt(node, ctrCacheHits)
			s.engFor(node).After(s.cfg.CacheCfg.HitLatency, finish)
			return
		}
		s.countAt(node, ctrCacheFills)
		if owner == node {
			w.dram.Access(mem.LineBytes, finish)
			return
		}
		// Write-allocate: fetch the line, then dirty it locally.
		s.net.Send(node, owner, s.cfg.CtrlBytes, noc.Load, func() {
			s.wm(owner).dram.Access(mem.LineBytes, func() {
				s.net.Send(owner, node, mem.LineBytes, noc.Load, finish)
			})
		})
	case owner == node:
		s.countAt(node, ctrLocalUncached)
		w.dram.Access(len(data), finish)
	default:
		s.countAt(node, ctrRemoteWrites)
		// Uncached remote store: posted write + ack.
		s.net.Send(node, owner, len(data)+s.cfg.CtrlBytes, noc.Store, func() {
			s.wm(owner).dram.Access(len(data), func() {
				s.net.Send(owner, node, s.cfg.CtrlBytes, noc.Store, finish)
			})
		})
	}
}

func (s *Space) oldWriteBack(node int, addr uint64, size int, done func()) {
	s.checkSpan(addr, size)
	p := s.pageOf(addr)
	owner := p.Owner()
	if s.net.Sharded() && owner != node {
		s.countAt(node, ctrRemoteWrites)
		s.netFor(node).Send(node, owner, size+s.cfg.CtrlBytes, noc.Store, func() {
			s.wm(owner).dram.Access(size, func() {
				s.netFor(owner).Send(owner, node, s.cfg.CtrlBytes, noc.Store, func() {
					if done != nil {
						done()
					}
				})
			})
		})
		return
	}
	w := s.wm(node)
	finish := func() {
		if done != nil {
			done()
		}
	}
	switch {
	case p.Cacher() == node:
		res := w.cache.Access(addr, true)
		s.oldHandleEviction(node, p, res)
		if res.Hit {
			s.countAt(node, ctrCacheHits)
			s.engFor(node).After(s.cfg.CacheCfg.HitLatency, finish)
			return
		}
		s.countAt(node, ctrCacheFills)
		if owner == node {
			w.dram.Access(mem.LineBytes, finish)
			return
		}
		s.net.Send(node, owner, s.cfg.CtrlBytes, noc.Load, func() {
			s.wm(owner).dram.Access(mem.LineBytes, func() {
				s.net.Send(owner, node, mem.LineBytes, noc.Load, finish)
			})
		})
	case owner == node:
		s.countAt(node, ctrLocalUncached)
		w.dram.Access(size, finish)
	default:
		s.countAt(node, ctrRemoteWrites)
		s.net.Send(node, owner, size+s.cfg.CtrlBytes, noc.Store, func() {
			s.wm(owner).dram.Access(size, func() {
				s.net.Send(owner, node, s.cfg.CtrlBytes, noc.Store, finish)
			})
		})
	}
}

func (s *Space) oldHandleEviction(node int, _ *page, res mem.AccessResult) {
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
	s.netFor(node).Send(node, vo, mem.LineBytes, noc.Store, func() {
		s.wm(vo).dram.Access(mem.LineBytes, nil)
	})
}
