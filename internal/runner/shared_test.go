package runner

import (
	"context"
	"fmt"
	"testing"

	"ecoscale/internal/cas"
	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
	"ecoscale/internal/workload"
)

// TestSharedCacheAndMetricsParallel is the shared-registry race
// regression: one cas.Store and one trace.Registry serve a Run at
// Parallel 8 while the points create series of their own in the same
// registry, a reader walks its series, and every point runs one freshly
// parsed kernel, so the first runs race to build its compiled form.
// Under -race this must be clean; the cold and warm tables must match
// the sequential one.
func TestSharedCacheAndMetricsParallel(t *testing.T) {
	reg := trace.NewRegistry()
	store, err := cas.Open(cas.Options{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.CARTSplit
	k := hls.MustParse(w.Source)
	scenario := func() Scenario {
		return Scenario{
			ID: "S1", Title: "t", Source: "s", Table: "tbl",
			Columns:   []string{"label", "ops", "flops"},
			Cacheable: true,
			Points: func() ([]Point, error) {
				var pts []Point
				for i := 0; i < 32; i++ {
					label := fmt.Sprintf("n=%d", 64+i)
					n := 64 + i
					pts = append(pts, Point{Label: label, Run: func(context.Context) (Row, error) {
						reg.CounterL("test.point", trace.L("label", label)).Inc()
						args, _ := w.Make(n, sim.NewRNG(int64(n)))
						st, err := hls.Run(k, args)
						if err != nil {
							return Row{}, err
						}
						return R(label, st.Ops, st.Flops), nil
					}})
				}
				return pts, nil
			},
		}
	}

	seq, err := RunSeq(scenario())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Series values belong to their writers; the reader only walks
		// and looks up series, which the registry itself synchronises.
		for i := 0; i < 50; i++ {
			reg.CounterNames()
			reg.HistogramNames()
			reg.FindHistogram(MetricPointWallUS)
		}
	}()
	opts := Options{Parallel: 8, Metrics: reg, Cache: store, CacheVersion: "test/1"}
	for _, pass := range []string{"cold", "warm"} {
		tbl, err := Run(context.Background(), scenario(), opts)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if tbl.String() != seq.String() {
			t.Errorf("%s table differs from sequential:\n%s\nvs\n%s", pass, tbl, seq)
		}
	}
	<-done
	if hits := reg.CounterTotal(cas.MetricHits); hits != 32 {
		t.Errorf("warm pass hits = %d, want 32", hits)
	}
	if got := reg.CounterTotal("test.point"); got != 2*32 {
		t.Errorf("points simulated %d times, want 64 (sequential and cold)", got)
	}
}
