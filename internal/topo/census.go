package topo

import "sync/atomic"

// Census tracks which Workers of a Tree are live — have had per-worker
// state materialized by some event. It is the bookkeeping behind the
// flyweight machine model: a Worker no event has touched costs one flag
// here and nothing elsewhere.
//
// The flags and the total are atomic so a sharded machine, whose Workers
// materialize concurrently on different shard goroutines, can share one
// census. A worker's live flag is only ever set from the shard that owns
// it; the total takes concurrent increments from all shards.
type Census struct {
	tree  *Tree
	live  []atomic.Bool
	total atomic.Int64
}

// NewCensus returns an all-quiescent census over the tree.
func NewCensus(t *Tree) *Census {
	return &Census{tree: t, live: make([]atomic.Bool, t.NumWorkers())}
}

// MarkLive records worker w as live; marking a live worker again is a
// no-op.
func (c *Census) MarkLive(w int) {
	c.tree.checkWorker(w)
	if c.live[w].CompareAndSwap(false, true) {
		c.total.Add(1)
	}
}

// LiveWorkers returns how many workers are live machine-wide.
func (c *Census) LiveWorkers() int { return int(c.total.Load()) }
