package mem

import (
	"strings"
	"testing"
	"testing/quick"

	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2})
	if r := c.Access(0, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(63, true); !r.Hit {
		t.Error("same-line access missed")
	}
	if r := c.Access(64, false); r.Hit {
		t.Error("next line hit")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", c.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways: lines 0, 4, 8 conflict (sets=4 → stride 4 lines).
	c := NewCache(CacheConfig{Sets: 4, Ways: 2})
	a0 := uint64(0)
	a1 := uint64(4 * LineBytes)
	a2 := uint64(8 * LineBytes)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false)      // a0 now MRU
	r := c.Access(a2, false) // evicts a1 (LRU)
	if !r.Evicted || r.EvictedAddr != a1 {
		t.Errorf("evicted %v (%d), want a1=%d", r.Evicted, r.EvictedAddr, a1)
	}
	if r.WritebackNeeded {
		t.Error("clean line flagged for writeback")
	}
	if !c.Contains(a0) || c.Contains(a1) || !c.Contains(a2) {
		t.Error("LRU eviction picked wrong victim")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 1, Ways: 1})
	c.Access(0, true) // dirty
	r := c.Access(uint64(LineBytes), false)
	if !r.Evicted || !r.WritebackNeeded || r.EvictedAddr != 0 {
		t.Errorf("dirty eviction wrong: %+v", r)
	}
	if c.Writebacks() != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Writebacks())
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(DefaultL2Config())
	c.Access(128, true)
	p, d := c.Invalidate(128)
	if !p || !d {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", p, d)
	}
	if c.Contains(128) {
		t.Error("line survived invalidation")
	}
	p, _ = c.Invalidate(128)
	if p {
		t.Error("second invalidation found line")
	}
}

func TestCacheInvalidateRange(t *testing.T) {
	c := NewCache(DefaultL2Config())
	for i := 0; i < 10; i++ {
		c.Access(uint64(i*LineBytes), i%2 == 0)
	}
	dropped, dirty := c.InvalidateRange(0, 10*LineBytes)
	if dropped != 10 || dirty != 5 {
		t.Errorf("InvalidateRange = (%d,%d), want (10,5)", dropped, dirty)
	}
	if d, _ := c.InvalidateRange(0, 0); d != 0 {
		t.Error("empty range dropped lines")
	}
}

func TestCacheGeometry(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 16, Ways: 4})
	if c.SizeBytes() != 16*4*LineBytes {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
	}
	if c.Config().Ways != 4 {
		t.Error("Config not preserved")
	}
	if !strings.Contains(c.String(), "4-way") {
		t.Errorf("String = %q", c.String())
	}
}

func TestCacheInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid cache config did not panic")
		}
	}()
	NewCache(CacheConfig{Sets: 0, Ways: 1})
}

func TestCacheEmptyHitRate(t *testing.T) {
	if NewCache(DefaultL2Config()).HitRate() != 0 {
		t.Error("empty cache hit rate should be 0")
	}
}

// Property: capacity invariant — valid lines never exceed sets*ways, and
// an immediate re-access of the last address always hits.
func TestCacheProperties(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 8, Ways: 2})
	prop := func(addrs []uint32) bool {
		for _, a := range addrs {
			addr := uint64(a)
			c.Access(addr, a%2 == 0)
			if !c.Contains(addr) {
				return false
			}
			if r := c.Access(addr, false); !r.Hit {
				return false
			}
		}
		return c.ValidLines() <= 16
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDRAM(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDRAM(eng, DRAMConfig{AccessLatency: 50 * sim.Nanosecond, BytesPerNs: 16, Banks: 2})
	var end sim.Time
	d.Access(64, func() { end = eng.Now() })
	eng.RunUntilIdle()
	want := 50*sim.Nanosecond + 4*sim.Nanosecond
	if end != want {
		t.Errorf("access took %v, want %v", end, want)
	}
	if d.Accesses() != 1 || d.Bytes() != 64 {
		t.Error("stats wrong")
	}
}

func TestDRAMBankParallelism(t *testing.T) {
	run := func(banks int) sim.Time {
		eng := sim.NewEngine(1)
		d := NewDRAM(eng, DRAMConfig{AccessLatency: 50 * sim.Nanosecond, BytesPerNs: 16, Banks: banks})
		var last sim.Time
		for i := 0; i < 8; i++ {
			d.Access(64, func() { last = eng.Now() })
		}
		eng.RunUntilIdle()
		return last
	}
	if run(8) >= run(1) {
		t.Error("banked DRAM should overlap accesses")
	}
}

func TestDRAMZeroBanksDefaults(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDRAM(eng, DRAMConfig{AccessLatency: 1, BytesPerNs: 1, Banks: 0})
	done := false
	d.Access(1, func() { done = true })
	eng.RunUntilIdle()
	if !done {
		t.Error("zero-bank DRAM never completed")
	}
}

func newDirectory(t *testing.T, workers int) (*sim.Engine, *Directory, *trace.Registry) {
	t.Helper()
	eng := sim.NewEngine(1)
	tr := topo.NewTree(workers)
	reg := trace.NewRegistry()
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), nil, reg)
	dir := NewDirectory(net, func(addr uint64) int { return int(addr/LineBytes) % workers }, reg)
	return eng, dir, reg
}

func TestDirectoryReadThenLocalHit(t *testing.T) {
	eng, dir, reg := newDirectory(t, 4)
	done := 0
	dir.Read(1, 0, func() { done++ })
	eng.RunUntilIdle()
	if done != 1 {
		t.Fatal("read never completed")
	}
	if dir.Sharers(0) != 1 {
		t.Errorf("Sharers = %d, want 1", dir.Sharers(0))
	}
	before := reg.Counter("coh.msgs").Value
	dir.Read(1, 0, func() { done++ })
	eng.RunUntilIdle()
	if done != 2 {
		t.Fatal("second read never completed")
	}
	if reg.Counter("coh.msgs").Value != before {
		t.Error("local hit generated protocol traffic")
	}
}

func TestDirectoryWriteInvalidatesSharers(t *testing.T) {
	eng, dir, reg := newDirectory(t, 8)
	wg := 0
	for n := 0; n < 6; n++ {
		dir.Read(n, 0, func() { wg++ })
	}
	eng.RunUntilIdle()
	if dir.Sharers(0) != 6 {
		t.Fatalf("Sharers = %d, want 6", dir.Sharers(0))
	}
	dir.Write(7, 0, func() { wg++ })
	eng.RunUntilIdle()
	if wg != 7 {
		t.Fatal("operations lost")
	}
	if dir.Owner(0) != 7 {
		t.Errorf("Owner = %d, want 7", dir.Owner(0))
	}
	if dir.Sharers(0) != 1 {
		t.Errorf("Sharers after write = %d, want 1", dir.Sharers(0))
	}
	if got := reg.Counter("coh.invalidations").Value; got != 6 {
		t.Errorf("invalidations = %d, want 6", got)
	}
}

func TestDirectoryDirtyFetch(t *testing.T) {
	eng, dir, _ := newDirectory(t, 4)
	ops := 0
	dir.Write(2, 64, func() { ops++ })
	eng.RunUntilIdle()
	dir.Read(3, 64, func() { ops++ })
	eng.RunUntilIdle()
	if ops != 2 {
		t.Fatal("ops lost")
	}
	if dir.Owner(64) != -1 {
		t.Errorf("owner should demote on remote read, got %d", dir.Owner(64))
	}
	if dir.Sharers(64) != 2 {
		t.Errorf("Sharers = %d, want 2 (old owner + reader)", dir.Sharers(64))
	}
}

func TestDirectoryWriteByOwnerIsFree(t *testing.T) {
	eng, dir, reg := newDirectory(t, 4)
	dir.Write(2, 0, nil)
	eng.RunUntilIdle()
	before := reg.Counter("coh.msgs").Value
	dir.Write(2, 0, nil)
	eng.RunUntilIdle()
	if reg.Counter("coh.msgs").Value != before {
		t.Error("owner re-write generated traffic")
	}
}

// The E3 shape: invalidation traffic grows linearly with sharer count,
// which is the unscalability the paper asserts.
func TestDirectoryTrafficGrowsWithSharers(t *testing.T) {
	traffic := func(sharers int) uint64 {
		eng, dir, reg := newDirectory(t, 64)
		for n := 0; n < sharers; n++ {
			dir.Read(n, 0, nil)
		}
		eng.RunUntilIdle()
		before := reg.Counter("coh.msgs").Value
		dir.Write(63, 0, nil)
		eng.RunUntilIdle()
		return reg.Counter("coh.msgs").Value - before
	}
	t4, t16, t48 := traffic(4), traffic(16), traffic(48)
	if !(t4 < t16 && t16 < t48) {
		t.Errorf("traffic not growing with sharers: %d %d %d", t4, t16, t48)
	}
	// Roughly linear: 48 sharers ≈ 3x the 16-sharer traffic.
	if float64(t48) < 2.2*float64(t16) {
		t.Errorf("expected ~linear growth, got %d vs %d", t48, t16)
	}
}

// Property: after any op sequence, at most one owner exists per line and
// every completion callback fires exactly once.
func TestDirectoryProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		eng, dir, _ := newDirectory(t, 8)
		want, got := 0, 0
		for _, op := range ops {
			node := int(op) % 8
			addr := uint64(op>>3) % 4 * LineBytes
			want++
			if op%2 == 0 {
				dir.Read(node, addr, func() { got++ })
			} else {
				dir.Write(node, addr, func() { got++ })
			}
		}
		eng.RunUntilIdle()
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
