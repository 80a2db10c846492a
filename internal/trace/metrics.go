package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file renders a Registry as machine-readable snapshots: a JSON
// document and Prometheus text exposition (version 0.0.4), so a run's
// counters, stats and histograms can be scraped, diffed or plotted
// without parsing the human tables.

// MetricPrefix is prepended to every exported Prometheus metric name.
const MetricPrefix = "ecoscale_"

// PromName sanitizes a registry metric name into a legal Prometheus
// identifier: the ecoscale_ prefix plus the name with every character
// outside [a-zA-Z0-9_:] replaced by '_'.
func PromName(name string) string {
	var b strings.Builder
	b.WriteString(MetricPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set (plus extras) in Prometheus brace form,
// or "" when empty. Labels are sorted by key.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// finite maps non-finite summary values (the ±Inf min/max of an empty
// Stat) to 0 so they survive JSON encoding.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// CounterSnapshot is one counter in a metrics snapshot.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// StatSnapshot is one stat in a metrics snapshot.
type StatSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    float64           `json:"sum"`
	Mean   float64           `json:"mean"`
	StdDev float64           `json:"stddev"`
	Min    float64           `json:"min"`
	Max    float64           `json:"max"`
}

// BucketSnapshot is one histogram bin: the count of samples at or below
// UpperBound (cumulative, Prometheus-style).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnapshot is one histogram in a metrics snapshot.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P95     float64           `json:"p95"`
	P99     float64           `json:"p99"`
	Buckets []BucketSnapshot  `json:"buckets"`
}

// GaugeSnapshot is one gauge in a metrics snapshot.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	// TimeWeightedMean is the ps-weighted mean of the values the gauge
	// held between its first and last timed update.
	TimeWeightedMean float64 `json:"time_weighted_mean"`
}

// MetricsSnapshot is the full machine-readable state of a Registry.
type MetricsSnapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Stats      []StatSnapshot      `json:"stats"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric in the registry, sorted by key.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var snap MetricsSnapshot
	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		snap.Counters = append(snap.Counters, CounterSnapshot{
			Name: c.Name, Labels: labelMap(c.Labels), Value: c.Value,
		})
	}
	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{
			Name: g.Name, Labels: labelMap(g.Labels),
			Value: finite(g.Value()), TimeWeightedMean: finite(g.TimeWeightedMean()),
		})
	}
	for _, k := range sortedKeys(r.stats) {
		s := r.stats[k]
		snap.Stats = append(snap.Stats, StatSnapshot{
			Name: s.Name, Labels: labelMap(s.Labels), Count: s.Count(),
			Sum: s.Sum(), Mean: s.Mean(), StdDev: s.StdDev(),
			Min: finite(s.Min()), Max: finite(s.Max()),
		})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		hs := HistogramSnapshot{
			Name: h.Name, Labels: labelMap(h.Labels), Count: h.Count(),
			Sum: h.Sum(), Min: finite(h.Min()), Max: finite(h.Max()),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90),
			P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
		var cum uint64
		for i := 0; i < h.NumBuckets(); i++ {
			cum += h.Bucket(i)
			hs.Buckets = append(hs.Buckets, BucketSnapshot{
				UpperBound: h.BucketBound(i), Count: cum,
			})
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	return snap
}

// WriteJSON emits the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus emits the registry in Prometheus text exposition
// format: counters as counter series, gauges as a last-value series plus
// a _twa time-weighted-mean series, stats as min/max/mean gauges plus
// _count/_sum, histograms as native histogram series with cumulative
// le buckets. Series sharing a name share one TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	emitHeader := func(seen map[string]bool, name, typ string) {
		if !seen[name] {
			seen[name] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		n := PromName(c.Name)
		emitHeader(seen, n, "counter")
		fmt.Fprintf(bw, "%s%s %d\n", n, promLabels(c.Labels), c.Value)
	}
	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		n := PromName(g.Name)
		emitHeader(seen, n, "gauge")
		fmt.Fprintf(bw, "%s%s %g\n", n, promLabels(g.Labels), finite(g.Value()))
		emitHeader(seen, n+"_twa", "gauge")
		fmt.Fprintf(bw, "%s%s %g\n", n+"_twa", promLabels(g.Labels), finite(g.TimeWeightedMean()))
	}
	for _, k := range sortedKeys(r.stats) {
		s := r.stats[k]
		base := PromName(s.Name)
		emitHeader(seen, base+"_count", "counter")
		fmt.Fprintf(bw, "%s%s %d\n", base+"_count", promLabels(s.Labels), s.Count())
		emitHeader(seen, base+"_sum", "gauge")
		fmt.Fprintf(bw, "%s%s %g\n", base+"_sum", promLabels(s.Labels), s.Sum())
		for _, g := range []struct {
			suffix string
			v      float64
		}{
			{"_mean", s.Mean()}, {"_min", finite(s.Min())}, {"_max", finite(s.Max())},
		} {
			emitHeader(seen, base+g.suffix, "gauge")
			fmt.Fprintf(bw, "%s%s %g\n", base+g.suffix, promLabels(s.Labels), g.v)
		}
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		base := PromName(h.Name)
		emitHeader(seen, base, "histogram")
		var cum uint64
		for i := 0; i < h.NumBuckets(); i++ {
			cum += h.Bucket(i)
			fmt.Fprintf(bw, "%s_bucket%s %d\n", base,
				promLabels(h.Labels, L("le", fmt.Sprintf("%g", h.BucketBound(i)))), cum)
		}
		fmt.Fprintf(bw, "%s_bucket%s %d\n", base, promLabels(h.Labels, L("le", "+Inf")), h.Count())
		fmt.Fprintf(bw, "%s_sum%s %g\n", base, promLabels(h.Labels), h.Sum())
		fmt.Fprintf(bw, "%s_count%s %d\n", base, promLabels(h.Labels), h.Count())
	}
	return bw.Flush()
}
