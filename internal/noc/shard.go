package noc

// Sharded (conservative-parallel) operation. When the simulation runs as a
// sim.Group with one logical process per Compute Node, the interconnect is
// instantiated once per shard (ShardNetworks); each instance owns the links
// whose arbitration state lives on its shard, and a message walks the tree
// by migrating between instances.
//
// The ownership rule is structural: link (level, group, dir) belongs to the
// LP of the first Compute Node under that group (for level 0 and 1 links
// that is simply the CN containing the port). A message holds each link for
// hop latency plus serialization, exactly as in the sequential walk; when
// the next link belongs to a different LP, the continuation is carried by a
// Post timed at the current hold's expiry. That Post always satisfies the
// group lookahead because every ownership change in a tree follows a hold
// on a level>=1 link, and the machine's lookahead is the minimum level>=1
// hop latency (MinLookahead). Same-LP continuations use plain AfterCall, so
// the event keying — and therefore the schedule — is a function of the tree
// alone, not of how LPs are packed onto shards.
//
// Cross-CN DMA chunk credits and load/store line acks, which the
// sequential model resolves at the destination, travel back to the source
// as lookahead-priced posts; their op state is allocated per transfer
// rather than pooled, since it crosses shard heaps.

import (
	"fmt"

	"ecoscale/internal/energy"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

// MinLookahead returns the smallest hop latency of any level that can carry
// cross-Compute-Node traffic (levels >= 1) — the conservative lookahead a
// sharded machine must synchronize with.
func MinLookahead(cfg Config) sim.Time {
	var min sim.Time
	for l := 1; l < len(cfg.Levels); l++ {
		if hl := cfg.Levels[l].HopLatency; min == 0 || hl < min {
			min = hl
		}
	}
	if min == 0 {
		min = cfg.Levels[0].HopLatency
	}
	return min
}

// ShardNetworks builds one Network per shard of grp over the same tree and
// config. Instance i runs on shard engine i; together they behave as one
// interconnect whose schedule is invariant under the shard count. meters
// and regs supply per-shard accounting sinks (either may be nil, or hold
// nil entries).
func ShardNetworks(grp *sim.Group, tree *topo.Tree, cfg Config, meters []*energy.Meter, regs []*trace.Registry) []*Network {
	if tree == nil {
		panic("noc: sharded operation requires a tree topology")
	}
	if MinLookahead(cfg) < grp.Lookahead() {
		panic(fmt.Sprintf("noc: level hop latency %v below group lookahead %v",
			MinLookahead(cfg), grp.Lookahead()))
	}
	k := grp.Shards()
	nets := make([]*Network, k)
	for i := 0; i < k; i++ {
		var m *energy.Meter
		var r *trace.Registry
		if meters != nil {
			m = meters[i]
		}
		if regs != nil {
			r = regs[i]
		}
		n := NewNetwork(grp.Shard(i), tree, cfg, m, r)
		n.grp = grp
		n.shard = int32(i)
		nets[i] = n
	}
	for i := range nets {
		nets[i].peers = nets
	}
	return nets
}

// Sharded reports whether this network is one shard of a ShardNetworks set.
func (n *Network) Sharded() bool { return n.grp != nil }

// lpOfWorker returns the LP (Compute Node index) owning worker w.
func (n *Network) lpOfWorker(w int) int32 { return int32(n.tree.ComputeNodeOf(w)) }

// linkOwnerLP returns the LP owning link (level, group): the first Compute
// Node under the group.
func (n *Network) linkOwnerLP(level, group int) int32 {
	if level == 0 {
		return n.lpOfWorker(group) // level-0 groups are single workers
	}
	lo, _ := n.tree.WorkersIn(level, group)
	return n.lpOfWorker(lo)
}

// LinkOwnerLP returns the LP that arbitration for worker w's level-level
// link runs on — the LP a sharded fault injector must post FlapLink to.
func (n *Network) LinkOwnerLP(w, level int) int32 {
	return n.linkOwnerLP(level, n.tree.GroupOf(level, w))
}

// For returns the shard instance that owns worker w's Compute Node — the
// instance all of w's traffic must be issued on. Legacy networks return
// themselves.
func (n *Network) For(w int) *Network {
	if n.grp == nil {
		return n
	}
	return n.peers[n.grp.ShardOf(n.lpOfWorker(w))]
}

// ForLP returns the shard instance hosting lp (needed for links above the
// Compute-Node level, whose owner LP is not any endpoint's CN).
func (n *Network) ForLP(lp int32) *Network {
	if n.grp == nil {
		return n
	}
	return n.peers[n.grp.ShardOf(lp)]
}

// Reg returns the registry this instance counts into (per-shard when
// sharded; report merging sums them).
func (n *Network) Reg() *trace.Registry { return n.reg }

// Running reports whether a sharded Run is in progress. Legacy networks
// always report false: any scheduling is legal there.
func (n *Network) Running() bool { return n.grp != nil && n.grp.Running() }

// HopToWorker runs fn at worker w's LP. On legacy networks, and when the
// current event already runs on w's LP, fn runs inline; otherwise it is
// carried over as a lookahead-priced post (during a run) or scheduled on
// the owning shard at its current time (during setup). Call it on the
// instance of the LP currently executing.
func (n *Network) HopToWorker(w int, fn func()) {
	if n.grp == nil {
		fn()
		return
	}
	lp := n.lpOfWorker(w)
	if !n.grp.Running() {
		n.grp.At(lp, n.ForLP(lp).eng.Now(), fn)
		return
	}
	if lp == n.eng.CurLP() {
		fn()
		return
	}
	n.eng.Post(lp, n.eng.Now()+n.grp.Lookahead(), fn)
}

// checkIssuer panics when a sharded-network operation is issued outside the
// source worker's LP: the discipline every component must follow for the
// schedule to be shard-count invariant. Outside a Run the issuing engine's
// LP attribution is set instead (setup traffic is legal from anywhere).
func (n *Network) checkIssuer(src int) {
	lp := n.lpOfWorker(src)
	if !n.grp.Running() {
		n.eng.SetupLP(lp)
		return
	}
	if n.eng.CurLP() != lp {
		panic(fmt.Sprintf("noc: operation for worker %d (LP %d) issued on LP %d",
			src, lp, n.eng.CurLP()))
	}
	if n.grp.ShardOf(lp) != n.shard {
		panic(fmt.Sprintf("noc: operation for worker %d issued on shard %d, owner shard %d (use Network.For)",
			src, n.shard, n.grp.ShardOf(lp)))
	}
}

// shardStep identifies one link of a sharded walk.
type shardStep struct {
	level, group int
	dir          int8
}

// shardSendOp is one cross-CN message in flight on a sharded network. It is
// heap-allocated per message: the op migrates between shard heaps, so pool
// recycling would race. n is rebound to the owning instance at each
// ownership handoff.
type shardSendOp struct {
	n     *Network
	steps []shardStep
	i     int
	dst   int
	size  int
	dfn   func(any)
	darg  any
	done  func()
}

// sendSharded carries one cross-CN message over the per-shard link walk.
// Same-CN traffic never reaches here (the pooled sequential walk is LP-pure
// within a Compute Node).
func (n *Network) sendSharded(src, dst, size int, kind Kind, done func(), dfn func(any), darg any) {
	lca := n.tree.LCALevel(src, dst)
	op := &shardSendOp{n: n, dst: dst, size: size, dfn: dfn, darg: darg, done: done}
	op.steps = make([]shardStep, 0, 2*lca)
	for l := 0; l < lca; l++ {
		op.steps = append(op.steps, shardStep{level: l, group: n.tree.GroupOf(l, src)})
	}
	for l := lca - 1; l >= 0; l-- {
		op.steps = append(op.steps, shardStep{level: l, group: n.tree.GroupOf(l, dst), dir: 1})
	}
	shardAcquire(op)
}

// shardAcquire requests the op's current link on its owning instance.
func shardAcquire(a any) {
	op := a.(*shardSendOp)
	st := op.steps[op.i]
	op.n.link(st.level, st.group, int(st.dir)).AcquireCall(shardGranted, op)
}

// shardHop rebinds the op to the instance owning LP lp, then continues.
type shardHop struct {
	op *shardSendOp
	lp int32
}

func shardHopAcquire(a any) {
	h := a.(*shardHop)
	h.op.n = h.op.n.peers[h.op.n.grp.ShardOf(h.lp)]
	shardAcquire(h.op)
}

func shardHopDeliver(a any) {
	h := a.(*shardHop)
	h.op.n = h.op.n.peers[h.op.n.grp.ShardOf(h.lp)]
	shardDeliver(h.op)
}

func shardRelease(a any) { a.(*sim.Resource).Release() }

// shardGranted runs when the op's current link grants a slot: schedule the
// hold's expiry release locally, and route the continuation (next link, or
// delivery) to wherever it runs — AfterCall when the owner LP is unchanged,
// a lookahead-priced Post when it is not. The Post is legal because the LP
// only changes after holding a level>=1 link, whose hop latency is at least
// the group lookahead.
func shardGranted(a any) {
	op := a.(*shardSendOp)
	n := op.n
	st := op.steps[op.i]
	hold := n.cfg.Levels[st.level].HopLatency + n.serialization(st.level, op.size)
	n.eng.AfterCall(hold, shardRelease, n.link(st.level, st.group, int(st.dir)))
	op.i++
	cur := n.eng.CurLP()
	if op.i == len(op.steps) {
		dstLP := n.lpOfWorker(op.dst)
		if dstLP == cur {
			n.eng.AfterCall(hold, shardDeliver, op)
		} else {
			n.eng.PostCall(dstLP, n.eng.Now()+hold, shardHopDeliver, &shardHop{op: op, lp: dstLP})
		}
		return
	}
	next := op.steps[op.i]
	nl := n.linkOwnerLP(next.level, next.group)
	if nl == cur {
		n.eng.AfterCall(hold, shardAcquire, op)
	} else {
		n.eng.PostCall(nl, n.eng.Now()+hold, shardHopAcquire, &shardHop{op: op, lp: nl})
	}
}

// shardDeliver completes the message at the destination LP.
func shardDeliver(a any) {
	op := a.(*shardSendOp)
	if op.dfn != nil {
		op.dfn(op.darg)
	} else if op.done != nil {
		op.done()
	}
}

// shardRT is an unpooled request/response pair: the response is issued on
// the destination's own instance when the request lands.
type shardRT struct {
	n        *Network // source instance
	src, dst int
	respSize int
	kind     Kind
	done     func()
}

func shardRTRespond(a any) {
	rt := a.(*shardRT)
	rt.n.For(rt.dst).send(rt.dst, rt.src, rt.respSize, rt.kind, rt.done, nil, nil)
}

// shardDMA is an unpooled cross-CN DMA transfer: each chunk is issued at
// the source LP, and the credit to issue the next one returns from the
// destination as a lookahead-priced post (the descriptor-ring ack).
type shardDMA struct {
	n         *Network // source instance
	src, dst  int
	srcLP     int32
	remaining int
	cfg       DMAConfig
	done      func()
}

func shardDMANext(a any) {
	op := a.(*shardDMA)
	n := op.n
	if op.remaining <= 0 {
		// Completion interrupt fires at the issuing side (the descriptor
		// ring lives with the initiator), on the source engine — this event
		// always runs at the source LP.
		n.eng.AfterCall(op.cfg.Completion, shardDMADone, op)
		return
	}
	chunk := op.remaining
	if chunk > op.cfg.ChunkBytes {
		chunk = op.cfg.ChunkBytes
	}
	op.remaining -= chunk
	n.send(op.src, op.dst, chunk, DMA, nil, shardDMACredit, op)
}

// shardDMACredit runs at the destination when a chunk lands; the next chunk
// issues back at the source after the credit's wire latency.
func shardDMACredit(a any) {
	op := a.(*shardDMA)
	dn := op.n.For(op.dst)
	dn.eng.PostCall(op.srcLP, dn.eng.Now()+dn.grp.Lookahead(), shardDMANext, op)
}

func shardDMADone(a any) {
	op := a.(*shardDMA)
	if op.done != nil {
		op.done()
	}
}

// shardLS is an unpooled cross-CN load/store stream: the line window lives
// at the source; each line's landing posts an ack back that releases a
// window slot.
type shardLS struct {
	n        *Network // source instance
	src, dst int
	srcLP    int32
	size     int
	lines    int
	issued   int
	landed   int
	window   *sim.Resource
	done     func()
}

func shardLSIssue(a any) {
	op := a.(*shardLS)
	const line = 64
	i := op.issued
	op.issued++
	sz := line
	if i == op.lines-1 && op.size%line != 0 && op.size > 0 {
		sz = op.size % line
	}
	op.n.send(op.src, op.dst, sz, Store, nil, shardLSLanded, op)
}

func shardLSLanded(a any) {
	op := a.(*shardLS)
	dn := op.n.For(op.dst)
	dn.eng.PostCall(op.srcLP, dn.eng.Now()+dn.grp.Lookahead(), shardLSAck, op)
}

// shardLSAck runs at the source: the acked line frees its window slot, and
// the last ack completes the transfer (at the source, which is where the
// issuing window semantics live on the sharded path).
func shardLSAck(a any) {
	op := a.(*shardLS)
	op.window.Release()
	op.landed++
	if op.landed == op.lines {
		if op.done != nil {
			op.done()
		}
	}
}
