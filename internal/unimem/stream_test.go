package unimem

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"ecoscale/internal/mem"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

// The kinds of access a differential script issues.
const (
	stepStreamRead = iota
	stepStreamWrite
	stepStreamWriteback
	stepRead
	stepWrite
	stepWriteBack
	numStepKinds
)

// streamStep is one access of a differential script, issued at time at
// on node's LP.
type streamStep struct {
	at     sim.Time
	kind   int
	node   int
	region int
	off    uint64 // offset within the region
	size   int
	window int
	fill   byte
}

func (st streamStep) bytes() []byte {
	b := make([]byte, st.size)
	for i := range b {
		b[i] = st.fill + byte(i)
	}
	return b
}

// streamScript is a random workload over a fixed set of regions.
type streamScript struct {
	regions []struct{ owner, size int }
	cachers map[int]int // region index → non-owner cacher (legacy only)
	steps   []streamStep
}

// newStreamScript draws regions that span several pages and a mix of
// concurrent streams and single accesses: sizes that cross pages,
// windows 1–16 and (when cacherMoves) pages cached away from their owner.
func newStreamScript(rng *rand.Rand, workers, pageBytes int, cacherMoves bool) streamScript {
	var sc streamScript
	sc.cachers = map[int]int{}
	for r := 0; r < 6; r++ {
		sc.regions = append(sc.regions, struct{ owner, size int }{
			rng.Intn(workers), pageBytes/2 + rng.Intn(3*pageBytes)})
		if cacherMoves && rng.Intn(2) == 0 {
			sc.cachers[r] = rng.Intn(workers)
		}
	}
	for i := 0; i < 40; i++ {
		r := rng.Intn(len(sc.regions))
		off := rng.Intn(sc.regions[r].size)
		st := streamStep{
			at:     sim.Time(rng.Intn(4000)) * sim.Nanosecond,
			kind:   rng.Intn(numStepKinds),
			node:   rng.Intn(workers),
			region: r,
			off:    uint64(off),
			window: 1 + rng.Intn(16),
			fill:   byte(rng.Intn(256)),
		}
		if st.kind <= stepStreamWriteback {
			st.size = 1 + rng.Intn(sc.regions[r].size-off)
		} else {
			pageRem := pageBytes - off%pageBytes
			st.size = 1 + rng.Intn(min(pageRem, 200))
		}
		sc.steps = append(sc.steps, st)
	}
	return sc
}

// streamOutcome is everything a script run is compared on.
type streamOutcome struct {
	Times   []sim.Time
	Reads   []uint64 // FNV of each single Read's bytes
	Events  uint64
	End     sim.Time
	Metrics []trace.MetricsSnapshot
	DRAM    [][2]uint64 // per-Worker accesses, bytes
	Pages   uint64      // FNV of every region's final bytes
	Spans   []trace.Span
}

// run executes sc on a fresh space — through the frozen oracle when old
// is set — and returns the outcome. shards > 0 builds a sharded machine
// of that many shards.
func (sc streamScript) run(t *testing.T, shards int, old bool) streamOutcome {
	t.Helper()
	tree := topo.NewTree(4, 2, 2)
	ncfg := noc.DefaultConfig(tree.MaxHops())
	cfg := DefaultConfig()
	cfg.CacheCfg = mem.CacheConfig{Sets: 4, Ways: 2, HitLatency: 5 * sim.Nanosecond} // evict often
	var (
		s    *Space
		regs []*trace.Registry
		at   func(w int, t sim.Time, fn func())
		run  func() sim.Time
		evs  func() uint64
	)
	if shards == 0 {
		eng := sim.NewEngine(1)
		reg := trace.NewRegistry()
		regs = []*trace.Registry{reg}
		s = NewSpace(noc.NewNetwork(eng, tree, ncfg, nil, reg), cfg, reg)
		s.Trace = trace.NewTracer(0)
		at = func(_ int, t sim.Time, fn func()) { eng.At(t, fn) }
		run, evs = eng.RunUntilIdle, eng.EventsRun
	} else {
		g := sim.NewGroup(1, noc.MinLookahead(ncfg), sim.BlockPartition(tree.NumComputeNodes(), shards))
		for i := 0; i < g.Shards(); i++ {
			regs = append(regs, trace.NewRegistry())
		}
		s = NewSpace(noc.ShardNetworks(g, tree, ncfg, nil, regs)[0], cfg, nil)
		at = func(w int, t sim.Time, fn func()) { g.At(int32(tree.ComputeNodeOf(w)), t, fn) }
		run, evs = g.RunUntilIdle, g.EventsRun
	}
	bases := make([]uint64, len(sc.regions))
	for r, rg := range sc.regions {
		bases[r] = s.Alloc(rg.owner, rg.size)
	}
	for r, c := range sc.cachers {
		for off := 0; off < sc.regions[r].size; off += cfg.PageBytes {
			s.SetCacher(bases[r]+uint64(off), c, nil)
		}
	}
	out := streamOutcome{Times: make([]sim.Time, len(sc.steps)), Reads: make([]uint64, len(sc.steps))}
	completed := make([]bool, len(sc.steps)) // each slot written at its step's LP
	for i, st := range sc.steps {
		i, st := i, st
		addr, window := bases[st.region]+st.off, st.window
		eng := s.engFor(st.node)
		done := func() { out.Times[i], completed[i] = eng.Now(), true }
		rdone := func(b []byte) {
			h := fnv.New64a()
			h.Write(b)
			out.Reads[i] = h.Sum64()
			done()
		}
		at(st.node, st.at, func() {
			switch {
			case st.kind == stepStreamRead && old:
				s.oldStreamRead(st.node, addr, st.size, window, func([]byte) { done() })
			case st.kind == stepStreamRead:
				s.StreamRead(st.node, addr, st.size, window, done)
			case st.kind == stepStreamWrite && old:
				s.oldStreamWrite(st.node, addr, st.bytes(), window, done)
			case st.kind == stepStreamWrite:
				s.StreamWrite(st.node, addr, st.bytes(), window, done)
			case st.kind == stepStreamWriteback && old:
				s.oldStreamWriteback(st.node, addr, st.size, window, done)
			case st.kind == stepStreamWriteback:
				s.StreamWriteback(st.node, addr, st.size, window, done)
			case st.kind == stepRead && old:
				s.oldRead(st.node, addr, st.size, rdone)
			case st.kind == stepRead:
				s.Read(st.node, addr, st.size, rdone)
			case st.kind == stepWrite && old:
				s.oldWrite(st.node, addr, st.bytes(), done)
			case st.kind == stepWrite:
				s.Write(st.node, addr, st.bytes(), done)
			case old:
				s.oldWriteBack(st.node, addr, st.size, done)
			default:
				s.store(st.node, addr, st.size, nil, done)
			}
		})
	}
	out.End = run()
	out.Events = evs()
	for _, r := range regs {
		out.Metrics = append(out.Metrics, r.Snapshot())
	}
	for w := 0; w < s.NumWorkers(); w++ {
		d := s.DRAM(w)
		out.DRAM = append(out.DRAM, [2]uint64{d.Accesses(), d.Bytes()})
	}
	h := fnv.New64a()
	for r, rg := range sc.regions {
		h.Write(s.PeekRange(bases[r], rg.size))
	}
	out.Pages = h.Sum64()
	out.Spans = s.Trace.Spans()
	for i, ok := range completed {
		if !ok {
			t.Fatalf("step %d never completed", i)
		}
	}
	return out
}

// TestStreamMatchesOracle runs random scripts through the pooled line
// pipeline and through the frozen closure-based implementation it
// replaced, and requires the same completion times, event count,
// counters, histograms, spans, DRAM traffic and bytes.
func TestStreamMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, shards := range []int{0, 2} {
			sc := newStreamScript(rand.New(rand.NewSource(seed)), 16, DefaultConfig().PageBytes, shards == 0)
			want := sc.run(t, shards, true)
			got := sc.run(t, shards, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d shards %d: pooled streams diverge from the oracle:\n got  %+v\n want %+v",
					seed, shards, summary(got), summary(want))
			}
		}
	}
}

func summary(o streamOutcome) any {
	return struct {
		Events uint64
		End    sim.Time
		Times  []sim.Time
		DRAM   [][2]uint64
		Pages  uint64
	}{o.Events, o.End, o.Times, o.DRAM, o.Pages}
}

// TestStreamSteadyStateAllocs pins the zero-alloc contract: on a warmed
// space, with a prebuilt done, a stream of every kind allocates nothing
// for lines that hit, fill locally, fill remotely, or go uncached to a
// local or remote owner.
func TestStreamSteadyStateAllocs(t *testing.T) {
	eng, s, reg := newSpace(t, 4)
	const size = 2 * 4096
	hit := s.Alloc(0, size)        // cached at node 0: hits once warm
	localFill := s.Alloc(0, size)  // invalidated each run: local fills
	remoteFill := s.Alloc(1, size) // cached at node 0, owned by 1
	localUncached := s.Alloc(0, size)
	remoteUncached := s.Alloc(1, size)
	for off := uint64(0); off < size; off += 4096 {
		s.SetCacher(remoteFill+off, 0, nil)
		s.SetCacher(localUncached+off, 1, nil)
	}
	eng.RunUntilIdle()
	data := make([]byte, size)
	n := 0
	done := func() { n++ }
	kinds := []struct {
		name   string
		stream func(addr uint64)
	}{
		{"StreamRead", func(a uint64) { s.StreamRead(0, a, size, 8, done) }},
		{"StreamWrite", func(a uint64) { s.StreamWrite(0, a, data, 8, done) }},
		{"StreamWriteback", func(a uint64) { s.StreamWriteback(0, a, size, 8, done) }},
	}
	for _, k := range kinds {
		pass := func() {
			s.Cache(0).InvalidateRange(localFill, size)
			s.Cache(0).InvalidateRange(remoteFill, size)
			for _, a := range []uint64{hit, localFill, remoteFill, localUncached, remoteUncached} {
				k.stream(a)
			}
			eng.RunUntilIdle()
		}
		pass() // warm the pools, the event arena and the counters
		if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
			t.Errorf("%s: %.1f allocs per pass of five streams, want 0", k.name, allocs)
		}
	}
	if n != len(kinds)*5*22 {
		t.Fatalf("%d streams completed, want %d", n, len(kinds)*5*22)
	}
	for _, c := range []string{"unimem.cache_hits", "unimem.cache_fills", "unimem.local_uncached",
		"unimem.remote_reads", "unimem.remote_writes"} {
		if reg.Counter(c).Value == 0 {
			t.Errorf("%s never counted: a line class is not covered", c)
		}
	}
	if s.DRAM(1).Accesses() == 0 {
		t.Error("no line reached the remote owner's DRAM")
	}
}

func TestPeekRangeCrossesPages(t *testing.T) {
	_, s, _ := newSpace(t, 2)
	addr := s.Alloc(1, 3*4096)
	want := make([]byte, 9000)
	for i := range want {
		want[i] = byte(i * 13)
	}
	for off := 0; off < len(want); {
		n := min(len(want)-off, 4096-(int(addr)+off)%4096)
		s.Poke(addr+uint64(off), want[off:off+n])
		off += n
	}
	if got := s.PeekRange(addr+5, len(want)-5); !bytes.Equal(got, want[5:]) {
		t.Fatal("PeekRange returned the wrong bytes")
	}
}

func benchmarkStream(b *testing.B, stream func(s *Space, addr uint64, done func())) {
	eng, s, _ := newSpace(b, 4)
	const size = 64 << 10
	addr := s.Alloc(1, size) // remote owner: every line crosses the NoC
	done := func() {}
	stream(s, addr, done)
	eng.RunUntilIdle()
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream(s, addr, done)
		eng.RunUntilIdle()
	}
}

// BenchmarkStreamRead times one 64 KiB stream read from a remote owner.
func BenchmarkStreamRead(b *testing.B) {
	benchmarkStream(b, func(s *Space, addr uint64, done func()) { s.StreamRead(0, addr, 64<<10, 8, done) })
}

// BenchmarkStreamWriteback times one 64 KiB identity write-back to a
// remote owner.
func BenchmarkStreamWriteback(b *testing.B) {
	benchmarkStream(b, func(s *Space, addr uint64, done func()) { s.StreamWriteback(0, addr, 64<<10, 8, done) })
}
