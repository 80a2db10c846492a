// Package unimem implements the UNIMEM architecture the ECOSCALE design
// builds on (§2, §4.1, inherited from the EUROSERVER project): a shared,
// partitioned global address space in which Workers communicate "via
// regular loads and stores without global cache coherence".
//
// The consistency model is the paper's: "From the point of view of a
// processor in a multi-node machine, a memory page can be cacheable at
// the local coherent node or at a remote coherent node, but not at both.
// This is the basis of the UNIMEM consistency model, which eliminates
// global-scope cache coherence protocols providing a scalable solution."
//
// Each page therefore has exactly one *owner* (the Worker whose DRAM
// holds it) and exactly one *cacher* (the single Worker allowed to hold
// its lines in cache — by default the owner). Moving the caching right
// flushes and invalidates at the old cacher first, so no stale copy can
// survive. There is no invalidation broadcast, no sharer list, no ack
// storm: that is the entire scalability argument, measured in E3.
//
// Timing is modelled on the simulated interconnect and DRAM; data is held
// in a real backing store so computations produce checkable results.
// Cached writes are applied to the backing store immediately (write-
// through data semantics) while their timing follows write-back rules;
// the single-cacher invariant makes this sound.
package unimem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"ecoscale/internal/mem"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// Config shapes a UNIMEM space.
type Config struct {
	// PageBytes is the ownership/caching granularity.
	PageBytes int
	// CacheCfg shapes each Worker's local cache.
	CacheCfg mem.CacheConfig
	// DRAMCfg shapes each Worker's DRAM channel.
	DRAMCfg mem.DRAMConfig
	// CtrlBytes is the size of a request header on the wire.
	CtrlBytes int
}

// DefaultConfig returns 4 KiB pages with default cache and DRAM models.
func DefaultConfig() Config {
	return Config{
		PageBytes: 4096,
		CacheCfg:  mem.DefaultL2Config(),
		DRAMCfg:   mem.DefaultDRAMConfig(),
		CtrlBytes: 16,
	}
}

// page metadata is atomically accessed: on a sharded machine, ownership
// flips at the new owner's LP (a migration landing) while other shards
// read it to route requests. The page *bytes* need no synchronization —
// only the current owner's LP touches them, and ownership hand-offs are
// separated from both sides' accesses by more than the group lookahead,
// so the window barrier orders them.
type page struct {
	owner  atomic.Int32
	cacher atomic.Int32
	data   []byte
}

func (p *page) Owner() int     { return int(p.owner.Load()) }
func (p *page) Cacher() int    { return int(p.cacher.Load()) }
func (p *page) setOwner(w int) { p.owner.Store(int32(w)) }
func (p *page) setCacher(w int) {
	p.cacher.Store(int32(w))
}

type workerMem struct {
	cache *mem.Cache
	dram  *mem.DRAM

	// Free lists of the line pipeline (see bulk.go).
	lineFree   *lineOp
	streamFree *streamOp
}

// Space is one UNIMEM global address space (one PGAS domain in ECOSCALE
// terms, spanning the Workers of a Compute Node — or several, when used
// for the whole-system experiments).
type Space struct {
	// Trace, when non-nil, records DMA/stream spans on each Worker's
	// stream lane.
	Trace *trace.Tracer

	net     *noc.Network
	cfg     Config
	reg     *trace.Registry
	ctrs    [numSpaceCtrs]*trace.Counter // reg's space counters, by first use
	pages   map[uint64]*page
	workers []*workerMem
	next    uint64 // next free page number
	reps    map[uint64]*replicaState
}

// NewSpace creates a space over the network's workers. Per-worker
// memory-side state (cache, DRAM channel) is a
// flyweight: the slice holds nil until the first access touching that
// worker materializes it, so a 100k-worker space costs one pointer per
// idle worker.
func NewSpace(net *noc.Network, cfg Config, reg *trace.Registry) *Space {
	if cfg.PageBytes <= 0 || cfg.PageBytes%mem.LineBytes != 0 {
		panic("unimem: page size must be a positive multiple of the line size")
	}
	n := net.Topology().NumWorkers()
	s := &Space{net: net, cfg: cfg, reg: reg, pages: map[uint64]*page{}, next: 1}
	s.workers = make([]*workerMem, n)
	return s
}

// netFor returns the interconnect instance to issue worker w's traffic
// on: the space's single network on a legacy machine, w's shard instance
// on a sharded one.
func (s *Space) netFor(w int) *noc.Network { return s.net.For(w) }

// engFor returns the engine worker w's events run on.
func (s *Space) engFor(w int) *sim.Engine { return s.net.For(w).Engine() }

// regFor returns the registry worker w's counters land in: per-shard when
// sharded (report merging sums them), the space's own otherwise.
func (s *Space) regFor(w int) *trace.Registry {
	if s.net.Sharded() {
		return s.net.For(w).Reg()
	}
	return s.reg
}

// wm materializes worker w's memory-side state on first touch. Creation
// schedules no events and consumes no randomness, so when a worker is
// first touched cannot affect simulated behaviour. On a sharded machine
// it must be called at w's LP (all callers are): the state lives on w's
// shard engine.
func (s *Space) wm(w int) *workerMem {
	m := s.workers[w]
	if m == nil {
		eng := s.engFor(w)
		m = &workerMem{
			cache: mem.NewCache(s.cfg.CacheCfg),
			dram:  mem.NewDRAM(eng, s.cfg.DRAMCfg),
		}
		s.workers[w] = m
	}
	return m
}

// Engine returns the simulation engine.
func (s *Space) Engine() *sim.Engine { return s.net.Engine() }

// Network returns the interconnect the space runs on.
func (s *Space) Network() *noc.Network { return s.net }

// PageBytes returns the page granularity.
func (s *Space) PageBytes() int { return s.cfg.PageBytes }

// NumWorkers returns the number of Workers sharing the space.
func (s *Space) NumWorkers() int { return len(s.workers) }

// Cache returns worker w's cache (for inspection in tests/benches).
func (s *Space) Cache(w int) *mem.Cache { return s.wm(w).cache }

// DRAM returns worker w's DRAM channel.
func (s *Space) DRAM(w int) *mem.DRAM { return s.wm(w).dram }

// spaceCtr identifies one of the space's access counters, so the hot
// paths that bump them need no name lookup.
type spaceCtr uint8

const (
	ctrCacherMoves spaceCtr = iota
	ctrRemoteReads
	ctrCacheHits
	ctrCacheFills
	ctrLocalUncached
	ctrRemoteWrites
	ctrWritebacks
	ctrMigrations
	ctrEvacuations
	ctrReplications
	ctrReplicaInvalidations
	ctrReplicaLocalReads
	ctrReplicaRemoteReads
	numSpaceCtrs
)

var spaceCtrNames = [numSpaceCtrs]string{
	ctrCacherMoves:          "unimem.cacher_moves",
	ctrRemoteReads:          "unimem.remote_reads",
	ctrCacheHits:            "unimem.cache_hits",
	ctrCacheFills:           "unimem.cache_fills",
	ctrLocalUncached:        "unimem.local_uncached",
	ctrRemoteWrites:         "unimem.remote_writes",
	ctrWritebacks:           "unimem.writebacks",
	ctrMigrations:           "unimem.migrations",
	ctrEvacuations:          "unimem.evacuations",
	ctrReplications:         "unimem.replications",
	ctrReplicaInvalidations: "unimem.replica_invalidations",
	ctrReplicaLocalReads:    "unimem.replica_local_reads",
	ctrReplicaRemoteReads:   "unimem.replica_remote_reads",
}

// countAt bumps space counter c attributed to worker w. A legacy space
// resolves each counter in its registry on first use and keeps the
// pointer, so the registry's series set is as if it were looked up on
// every access; a sharded one counts into w's shard registry, which
// report merging sums.
func (s *Space) countAt(w int, c spaceCtr) {
	if s.net.Sharded() {
		if r := s.net.For(w).Reg(); r != nil {
			r.Counter(spaceCtrNames[c]).Inc()
		}
		return
	}
	if s.reg == nil {
		return
	}
	ctr := s.ctrs[c]
	if ctr == nil {
		ctr = s.reg.Counter(spaceCtrNames[c])
		s.ctrs[c] = ctr
	}
	ctr.Inc()
}

// Alloc reserves size bytes of globally addressable memory owned by
// worker owner and returns the base address. Allocations are page-
// granular and never recycled (the experiments build fresh spaces).
func (s *Space) Alloc(owner, size int) uint64 {
	if owner < 0 || owner >= len(s.workers) {
		panic(fmt.Sprintf("unimem: bad owner %d", owner))
	}
	if size <= 0 {
		panic("unimem: Alloc size must be positive")
	}
	if s.net.Running() {
		// Sharded runs read the pages map from every shard without locks;
		// it must be frozen before events fire.
		panic("unimem: Alloc during a sharded run (allocate at setup)")
	}
	npages := (size + s.cfg.PageBytes - 1) / s.cfg.PageBytes
	base := s.next * uint64(s.cfg.PageBytes)
	for i := 0; i < npages; i++ {
		p := &page{data: make([]byte, s.cfg.PageBytes)}
		p.setOwner(owner)
		p.setCacher(owner)
		s.pages[s.next] = p
		s.next++
	}
	return base
}

func (s *Space) pageOf(addr uint64) *page {
	p, ok := s.pages[addr/uint64(s.cfg.PageBytes)]
	if !ok {
		panic(fmt.Sprintf("unimem: access to unallocated address %#x", addr))
	}
	return p
}

// OwnerOf returns the Worker whose DRAM holds the page containing addr.
func (s *Space) OwnerOf(addr uint64) int { return s.pageOf(addr).Owner() }

// CacherOf returns the single Worker allowed to cache the page.
func (s *Space) CacherOf(addr uint64) int { return s.pageOf(addr).Cacher() }

// checkSpan panics when [addr, addr+size) crosses a page boundary; the
// bulk helpers split transfers so individual ops never do.
func (s *Space) checkSpan(addr uint64, size int) {
	if size <= 0 {
		panic("unimem: access size must be positive")
	}
	if int(addr%uint64(s.cfg.PageBytes))+size > s.cfg.PageBytes {
		panic(fmt.Sprintf("unimem: access %#x+%d crosses a page boundary", addr, size))
	}
}

// SetCacher moves the page's caching right to node, flushing and
// invalidating the old cacher first so the one-copy invariant holds.
// done runs when the transfer of rights (including flush traffic) is
// complete.
func (s *Space) SetCacher(addr uint64, node int, done func()) {
	p := s.pageOf(addr)
	if node < 0 || node >= len(s.workers) {
		panic(fmt.Sprintf("unimem: bad cacher %d", node))
	}
	if p.Cacher() == node {
		if done != nil {
			done()
		}
		return
	}
	if s.net.Sharded() {
		// Sharded machines pin the caching right to the owner: a remote
		// cacher would put the page bytes under two LPs at once.
		panic("unimem: SetCacher to a non-owner is not supported on a sharded machine")
	}
	old := p.Cacher()
	pageBase := addr / uint64(s.cfg.PageBytes) * uint64(s.cfg.PageBytes)
	// An unmaterialized old cacher has an empty cache: nothing to flush.
	dirty := 0
	if om := s.workers[old]; om != nil {
		_, dirty = om.cache.InvalidateRange(pageBase, s.cfg.PageBytes)
	}
	s.countAt(old, ctrCacherMoves)
	finish := func() {
		p.setCacher(node)
		if done != nil {
			done()
		}
	}
	if dirty == 0 || old == p.Owner() {
		// Nothing to push over the wire (clean, or dirty lines already
		// live in the owner's DRAM).
		finish()
		return
	}
	// Write the dirty lines back to the owner before handing off.
	owner := p.Owner()
	start := s.Engine().Now()
	wg := sim.NewWaitGroup(s.Engine(), dirty)
	for i := 0; i < dirty; i++ {
		s.net.Send(old, owner, mem.LineBytes, noc.Store, func() {
			s.wm(owner).dram.Access(mem.LineBytes, wg.DoneOne)
		})
	}
	wg.Wait(func() {
		s.observeCoh(old, "cacher-move", start, int64(dirty*mem.LineBytes))
		finish()
	})
}

// observeCoh records one completed timed coherence action (a cacher
// hand-off writeback or a page migration) as a coherence span and a
// latency-histogram sample — the UNIMEM/coherence category of the
// profiler's critical-path attribution.
func (s *Space) observeCoh(node int, name string, start sim.Time, bytes int64) {
	now := s.engFor(node).Now()
	if !s.net.Sharded() {
		// The shared tracer is not shard-safe; sharded machines rely on
		// the per-shard registries below instead.
		s.Trace.Add(trace.Span{Name: name, Cat: trace.CatCoh,
			Start: int64(start), End: int64(now),
			PID: trace.WorkerPID(node), TID: trace.TIDDMA, Arg: bytes})
	}
	if r := s.regFor(node); r != nil {
		trace.LatencyHistogram(r, "lat.coh_us").Observe((now - start).Micros())
	}
}

// Read performs a load of size bytes at addr by worker node, delivering
// the data to done when it arrives. The path depends on the node's
// relationship to the page, exactly as §4.1 describes:
//
//   - node == cacher: cache hit, or line fill from the owner's DRAM
//     (local or over the interconnect).
//   - node == owner but not cacher: DRAM access, uncached.
//   - otherwise: uncached remote load — a round trip to the owner.
func (s *Space) Read(node int, addr uint64, size int, done func(data []byte)) {
	s.checkSpan(addr, size)
	op := s.getLine(node)
	op.addr, op.size, op.rdone = addr, size, done
	s.access(op)
}

// Write performs a store of data at addr by worker node: the bytes are
// copied into the page, then the store takes the line path's store
// timing, the same as an identity write-back's. done
// runs when the store is globally performed (at the owner, or dirty in
// the single legal cache).
func (s *Space) Write(node int, addr uint64, data []byte, done func()) {
	s.checkSpan(addr, len(data))
	s.store(node, addr, len(data), data, done)
}

func (s *Space) store(node int, addr uint64, size int, data []byte, done func()) {
	op := s.getLine(node)
	op.addr, op.size, op.write, op.data, op.done = addr, size, true, data, done
	s.access(op)
}

// ReadWord loads a 64-bit little-endian word.
func (s *Space) ReadWord(node int, addr uint64, done func(v uint64)) {
	s.Read(node, addr, 8, func(b []byte) {
		if done != nil {
			done(binary.LittleEndian.Uint64(b))
		}
	})
}

// WriteWord stores a 64-bit little-endian word.
func (s *Space) WriteWord(node int, addr uint64, v uint64, done func()) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(node, addr, b[:], done)
}

// Peek reads data directly from the backing store with no timing; for
// result verification in tests and benches.
func (s *Space) Peek(addr uint64, size int) []byte {
	s.checkSpan(addr, size)
	p := s.pageOf(addr)
	off := addr % uint64(s.cfg.PageBytes)
	out := make([]byte, size)
	copy(out, p.data[off:])
	return out
}

// PeekWord reads a 64-bit word with no timing.
func (s *Space) PeekWord(addr uint64) uint64 {
	return binary.LittleEndian.Uint64(s.Peek(addr, 8))
}

// Poke writes data directly with no timing; for test setup.
func (s *Space) Poke(addr uint64, data []byte) {
	s.checkSpan(addr, len(data))
	p := s.pageOf(addr)
	copy(p.data[addr%uint64(s.cfg.PageBytes):], data)
}

// PokeWord writes a 64-bit word with no timing.
func (s *Space) PokeWord(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Poke(addr, b[:])
}

// MigratePage moves the page containing addr to a new owner: the old
// cacher is flushed, the page bytes stream over as a DMA transfer, and
// ownership plus caching right land at the destination. This is the
// "move tasks and processes close to data instead of moving data around"
// machinery's inverse — data moves when the runtime decides locality is
// better served that way.
// On a sharded machine, MigratePage must be issued at the old owner's LP
// (the interconnect's issuer discipline enforces this); done runs at the
// new owner's LP, where the landing DRAM write and the ownership flip
// execute.
func (s *Space) MigratePage(addr uint64, newOwner int, done func()) {
	p := s.pageOf(addr)
	if newOwner < 0 || newOwner >= len(s.workers) {
		panic(fmt.Sprintf("unimem: bad owner %d", newOwner))
	}
	if p.Owner() == newOwner {
		if done != nil {
			done()
		}
		return
	}
	origOwner := p.Owner()
	s.countAt(origOwner, ctrMigrations)
	start := s.engFor(origOwner).Now()
	s.SetCacher(addr, origOwner, func() {
		old := p.Owner()
		s.netFor(old).DMATransfer(old, newOwner, s.cfg.PageBytes, noc.DefaultDMAConfig(), func() {
			// Sharded DMA completes at the source LP; hop to the new
			// owner for the landing write and the flip.
			s.netFor(old).HopToWorker(newOwner, func() {
				s.wm(newOwner).dram.Access(s.cfg.PageBytes, func() {
					p.setOwner(newOwner)
					p.setCacher(newOwner)
					s.observeCoh(origOwner, "migrate", start, int64(s.cfg.PageBytes))
					if done != nil {
						done()
					}
				})
			})
		})
	})
}
