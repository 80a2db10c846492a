package trace

import (
	"fmt"
	"maps"
)

// Cross-registry merging. A sharded machine keeps one Registry per shard
// so counters and histograms never cross goroutines during a run; after
// the run, reporting folds them into one view. Integer counters and
// histogram buckets merge exactly, so any total derived from them is
// invariant under the shard count.

// MergeStat folds other into s.
func (s *Stat) MergeStat(other *Stat) {
	if other.n == 0 {
		return
	}
	s.n += other.n
	s.sum += other.sum
	s.sum2 += other.sum2
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// MergeHistogram folds other into h. The shapes must match: merged
// histograms come from per-shard registries created by the same code
// path, so a mismatch is a wiring bug, not data.
func (h *Histogram) MergeHistogram(other *Histogram) {
	if len(h.buckets) != len(other.buckets) || h.lo != other.lo || h.hi != other.hi {
		panic(fmt.Sprintf("trace: merging histograms %q with different shapes", h.Name))
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.stat.MergeStat(other.stat)
}

// MergeFrom folds every metric series of src into r: counters and
// histograms add, stats combine their moments, and a gauge not yet set
// in r adopts src's last value (time-weighted gauge history does not
// merge and is dropped). src is not modified.
func (r *Registry) MergeFrom(src *Registry) {
	// Copy src's series under its lock, then merge under r's, so the
	// two locks are never held together.
	src.mu.Lock()
	from := &Registry{
		counters: maps.Clone(src.counters), stats: maps.Clone(src.stats),
		hists: maps.Clone(src.hists), gauges: maps.Clone(src.gauges),
	}
	src.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range from.counters {
		d, ok := r.counters[k]
		if !ok {
			d = &Counter{Name: c.Name, Labels: c.Labels}
			r.counters[k] = d
		}
		d.Value += c.Value
	}
	for k, s := range from.stats {
		d, ok := r.stats[k]
		if !ok {
			d = NewStat(s.Name)
			d.Labels = s.Labels
			r.stats[k] = d
		}
		d.MergeStat(s)
	}
	for k, h := range from.hists {
		d, ok := r.hists[k]
		if !ok {
			d = NewHistogram(h.Name, h.lo, h.hi, len(h.buckets))
			d.Labels = h.Labels
			r.hists[k] = d
		}
		d.MergeHistogram(h)
	}
	for k, g := range from.gauges {
		if !g.Seen() {
			continue
		}
		d, ok := r.gauges[k]
		if !ok {
			d = &Gauge{Name: g.Name, Labels: g.Labels}
			r.gauges[k] = d
		}
		if !d.Seen() {
			d.Set(g.Value())
		}
	}
}
