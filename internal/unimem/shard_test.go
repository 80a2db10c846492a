package unimem_test

// Shard-count invariance of the sharded UNIMEM data plane: remote reads
// observe owner-side data, remote writes apply at the owner, and page
// migration lands deterministically —
// all independent of how Compute Nodes are packed onto shards.

import (
	"testing"

	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/unimem"
)

type shardMemTrace struct {
	final  sim.Time
	events uint64
	sum    uint64
	peeked uint64
}

func runShardMemTrace(t *testing.T, shards int) shardMemTrace {
	t.Helper()
	tree := topo.NewTree(4, 4, 2)
	cfg := noc.DefaultConfig(tree.MaxHops())
	g := sim.NewGroup(3, noc.MinLookahead(cfg), sim.BlockPartition(tree.NumComputeNodes(), shards))
	nets := noc.ShardNetworks(g, tree, cfg, nil, nil)
	s := unimem.NewSpace(nets[0], unimem.DefaultConfig(), nil)

	// One page per CN, owned by that CN's first worker.
	nCN := tree.NumComputeNodes()
	addrs := make([]uint64, nCN)
	for cn := 0; cn < nCN; cn++ {
		lo, _ := tree.WorkersIn(1, cn)
		addrs[cn] = s.Alloc(lo, s.PageBytes())
	}

	var tr shardMemTrace
	// got[w] is only written by worker w's delivery callback (w's LP).
	got := make([]uint64, tree.NumWorkers())
	lpOf := func(w int) int32 { return int32(tree.ComputeNodeOf(w)) }
	// Every worker stores a word into the next CN's page, then reads the
	// previous CN's page.
	for w := 0; w < tree.NumWorkers(); w++ {
		w := w
		cn := tree.ComputeNodeOf(w)
		to := addrs[(cn+1)%nCN] + uint64(16*(w%16))
		from := addrs[(cn+nCN-1)%nCN] + uint64(16*(w%16))
		g.At(lpOf(w), sim.Time(10*w)*sim.Nanosecond, func() {
			s.WriteWord(w, to, uint64(w)*2654435761, func() {
				s.ReadWord(w, from, func(v uint64) { got[w] = v })
			})
		})
	}
	tr.final = g.RunUntilIdle()
	tr.events = g.EventsRun()
	for _, v := range got {
		tr.sum = tr.sum*31 + v
	}
	for _, a := range addrs {
		for off := uint64(0); off < uint64(s.PageBytes()); off += 16 {
			tr.sum = tr.sum*31 + s.PeekWord(a+off)
		}
	}

	// A quiesced migration: move CN 1's page to a worker in CN 5 and read
	// it back from a third CN.
	g.At(lpOf(4), tr.final+100*sim.Nanosecond, func() {
		s.MigratePage(addrs[1], 20, func() {
			s.ReadWord(22, addrs[1]+32, func(v uint64) { tr.peeked = v + 1 })
		})
	})
	tr.final = g.RunUntilIdle()
	tr.events = g.EventsRun()
	if s.OwnerOf(addrs[1]) != 20 {
		t.Fatalf("shards=%d: page owner %d after migration, want 20", shards, s.OwnerOf(addrs[1]))
	}
	return tr
}

func TestShardedSpaceInvariance(t *testing.T) {
	want := runShardMemTrace(t, 1)
	if want.peeked == 0 {
		t.Fatal("post-migration read did not complete")
	}
	for _, k := range []int{2, 3, 8} {
		if got := runShardMemTrace(t, k); got != want {
			t.Fatalf("shards=%d diverged: %+v, want %+v", k, got, want)
		}
	}
}
