package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"ecoscale/internal/experiments"
	"ecoscale/internal/runner"
)

func TestLayerAttribution(t *testing.T) {
	for _, c := range []struct {
		frames []string
		cpu    string
		alloc  string
	}{
		{[]string{"ecoscale/internal/hls.(*env).exec", "ecoscale/internal/hls.Run"}, "hls", "hls"},
		{[]string{"runtime.mapaccess2_faststr", "ecoscale/internal/hls.(*env).eval"}, "hls", "hls"},
		{[]string{"ecoscale/internal/sim.(*Engine).Run.func1"}, "sim", "sim"},
		{[]string{"ecoscale/internal/unimem.(*Space).Read"}, "unimem", "unimem"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ecoscale/internal/unimem.(*Space).Read"}, "gc", "unimem"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc", "other"},
		{[]string{"runtime.gcWriteBarrier2", "ecoscale/internal/sim.(*heap).push"}, "gc", "sim"},
		{[]string{"runtime.bgsweep"}, "gc", "other"},
		{[]string{"crypto/sha256.block", "ecoscale/internal/cas.Key.Hash"}, "cas", "cas"},
		{[]string{"ecoscale/internal/experiments.scenE10.func1", "ecoscale/internal/runner.Run"}, "other", "other"},
		{[]string{"main.main"}, "other", "other"},
	} {
		if got := cpuLayer(c.frames); got != c.cpu {
			t.Errorf("cpuLayer(%v) = %q, want %q", c.frames, got, c.cpu)
		}
		if got := pkgOf(c.frames); got != c.alloc {
			t.Errorf("pkgOf(%v) = %q, want %q", c.frames, got, c.alloc)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfileFindsSpinningFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inSpin, total int64
	for i, st := range stacks {
		total += weights[i]
		for _, f := range st {
			if f == "ecoscale/perfbench.spin" || f == "main.spin" {
				inSpin += weights[i]
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("spin holds %d of %d samples; stacks %v", inSpin, total, stacks)
	}
	if _, _, err := parseProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestChangedTableDigestCountsAsFailedPoints(t *testing.T) {
	s, err := experiments.ByID("A3")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	good, err := scenarioDigest(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ref    string
		failed int
	}{{good, 0}, {"0" + good[1:], len(pts)}, {"", len(pts)}} {
		su := &suite{
			scens: []runner.Scenario{s},
			npts:  map[string]int{s.ID: len(pts)},
			ref:   map[string]string{s.ID: c.ref},
			log:   io.Discard,
		}
		p := su.run(runner.Options{Parallel: 1})
		if p.attempted != len(pts) || p.failed != c.failed {
			t.Errorf("reference %q: attempted %d, failed %d; want %d, %d", c.ref, p.attempted, p.failed, len(pts), c.failed)
		}
	}
}

func TestLostOrFailedTasksCount(t *testing.T) {
	ok := map[string]float64{"rts.tasks_hw": 9, "rts.tasks_cpu": 1}
	for _, c := range []struct {
		done, errs int
		counts     map[string]float64
		digest     string
		want       int
	}{
		{10, 0, ok, "d", 0},
		{8, 0, ok, "d", 2},   // two tasks never completed
		{10, 3, ok, "d", 3},  // three completed with an error
		{10, 0, ok, "x", 10}, // counters differ from the reference
		{10, 0, map[string]float64{"rts.tasks_hw": 9}, "d", 10},  // a task was not executed
		{10, 0, map[string]float64{"rts.tasks_hw": 11}, "d", 10}, // a task was executed twice
		{7, 1, map[string]float64{"rts.tasks_hw": 5, "rts.tasks_cpu": 5}, "d", 4},
	} {
		if got := taskFailures(10, c.done, c.errs, c.counts, c.digest, "d"); got != c.want {
			t.Errorf("done %d errs %d counts %v digest %s: failed %d, want %d", c.done, c.errs, c.counts, c.digest, got, c.want)
		}
	}
}

func TestMachinePassWithWrongDigestFailsEveryTask(t *testing.T) {
	b, err := newMachineBench(&env{seed: 7, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	b.tasks = b.tasks[:8]
	first := b.pass()
	if first.failed != 0 || first.attempted != 8 {
		t.Fatalf("first pass: failed %d of %d", first.failed, first.attempted)
	}
	if again := b.pass(); again.digest != first.digest || again.failed != 0 {
		t.Fatalf("second pass digest %s failed %d; first %s", again.digest, again.failed, first.digest)
	}
	b.want = "not the digest"
	if p := b.pass(); p.failed != 8 {
		t.Fatalf("pass with a wrong reference: failed %d of 8", p.failed)
	}
}

func TestGenTasksIsSeededAndBalanced(t *testing.T) {
	a, b, c := genTasks(1, 16, 3), genTasks(1, 16, 3), genTasks(2, 16, 3)
	if !slices.Equal(a, b) || slices.Equal(a, c) {
		t.Fatal("task stream is not a function of the seed")
	}
	perWorker := map[int]int{}
	var sizes []int
	for _, tk := range c {
		perWorker[tk.worker]++
		sizes = append(sizes, tk.n)
	}
	slices.Sort(sizes)
	if len(perWorker) != 16 || sizes[0] != meanN/2 || sizes[len(sizes)-1] != 3*meanN/2 {
		t.Fatalf("workers %v, sizes %v", perWorker, sizes)
	}
	for w, n := range perWorker {
		if n != 3 {
			t.Fatalf("worker %d has %d tasks, want 3", w, n)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3, 1, 2], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in perfbench", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []def) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
}
