package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ecoscale"
	"ecoscale/internal/accel"
	"ecoscale/internal/cas"
	"ecoscale/internal/experiments"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
	"ecoscale/internal/workload"
)

// env is what every workload is given: its seed, the length of a timed
// phase, the reference digests and a scratch directory in the checkout.
type env struct {
	seed    int64
	phase   time.Duration
	ref     reference
	workdir string
	log     io.Writer
}

// pass is what one unit of timed work reports: a whole suite for esuite
// and esuite_warm, one machine run of the whole task stream for
// machine_hw.
type pass struct {
	setups    []time.Duration // set-up times measured with this pass
	wall      time.Duration
	alloc     uint64          // bytes allocated during wall
	points    []time.Duration // host time of each runner point, in declared order
	attempted int
	failed    int
	scenario  map[string]time.Duration // runner.Run time per scenario
	counts    map[string]float64       // exact per-layer counts
	digest    string                   // machine_hw's counter digest
}

// bench is one workload after set-up.
type bench interface {
	pass() pass
}

// workloadDef is a workload: its runner pool size, recorded as a host
// fact (0 when it does not use the runner), and its set-up, which
// returns the set-up passes it measured.
type workloadDef struct {
	parallel int
	open     func(e *env) (bench, []pass, error)
}

var workloads = map[string]workloadDef{
	"esuite":      {parallel: 1, open: openEsuite},
	"machine_hw":  {open: openMachine},
	"esuite_warm": {parallel: 2, open: openWarm},
}

// minPasses keeps a timed phase from reporting a median of one pass.
const minPasses = 3

// timedPhase repeats passes until d has elapsed and at least minPasses
// have run.
func timedPhase(b bench, d time.Duration) []pass {
	var ps []pass
	for start := time.Now(); len(ps) < minPasses || time.Since(start) < d; {
		ps = append(ps, b.pass())
	}
	return ps
}

// measure runs f and returns its wall time and the bytes it allocated.
func measure(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc
}

// ---- esuite and esuite_warm ----

// suiteSetups is how many times esuite's set-up is repeated before each
// pass; one set-up takes well under a millisecond, and spreading the
// samples over the run keeps a passing host stall from setting the
// median.
const suiteSetups = 200

// suite runs every registered scenario in registry order and checks
// each table against its reference digest.
type suite struct {
	scens []runner.Scenario
	npts  map[string]int // points per scenario
	ref   map[string]string
	log   io.Writer
}

// buildSuite is esuite's set-up: the scenario registry and the
// construction of every scenario's points.
func buildSuite() ([]runner.Scenario, map[string]int, error) {
	scens := experiments.Registry()
	npts := make(map[string]int, len(scens))
	for _, s := range scens {
		pts, err := s.Points()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: building points: %w", s.ID, err)
		}
		npts[s.ID] = len(pts)
	}
	return scens, npts, nil
}

// rebuild runs esuite's set-up n times and keeps the last result.
func (s *suite) rebuild(n int) ([]time.Duration, error) {
	ts := make([]time.Duration, n)
	for i := range ts {
		t0 := time.Now()
		scens, npts, err := buildSuite()
		ts[i] = time.Since(t0)
		if err != nil {
			return nil, err
		}
		s.scens, s.npts = scens, npts
	}
	return ts, nil
}

func openEsuite(e *env) (bench, []pass, error) {
	s := &suite{ref: e.ref.Esuite, log: e.log}
	ts, err := s.rebuild(1)
	return esuite{s}, []pass{{setups: ts}}, err
}

type esuite struct{ *suite }

func (b esuite) pass() pass {
	ts, err := b.rebuild(suiteSetups)
	if err != nil {
		// The suite built once already; a set-up that fails now fails
		// the points it would have run.
		fmt.Fprintln(b.log, "perfbench:", err)
		return b.failAll()
	}
	p := b.run(runner.Options{Parallel: 1, Metrics: trace.NewRegistry()})
	p.setups = ts
	return p
}

// failAll is a pass in which every point failed.
func (s *suite) failAll() pass {
	var p pass
	for _, n := range s.npts {
		p.attempted += n
	}
	p.failed = p.attempted
	return p
}

// run is one pass over the suite with the given runner options.
func (s *suite) run(opts runner.Options) pass {
	p := pass{scenario: make(map[string]time.Duration, len(s.scens))}
	tables := make([]*trace.Table, len(s.scens))
	errs := make([]error, len(s.scens))
	base := 0 // index of the running scenario's first point
	opts.Progress = func(ev runner.Event) {
		if ev.Kind == runner.PointCompleted && base+ev.Index < len(p.points) {
			p.points[base+ev.Index] = ev.Elapsed
		}
	}
	for _, sc := range s.scens {
		p.attempted += s.npts[sc.ID]
	}
	p.points = make([]time.Duration, p.attempted)
	p.wall, p.alloc = measure(func() {
		for i, sc := range s.scens {
			t0 := time.Now()
			tables[i], errs[i] = runner.Run(context.Background(), sc, opts)
			p.scenario[sc.ID] = time.Since(t0)
			base += s.npts[sc.ID]
		}
	})
	for i, sc := range s.scens {
		n := s.npts[sc.ID]
		if errs[i] != nil {
			fmt.Fprintf(s.log, "perfbench: %s: %v\n", sc.ID, errs[i])
			p.failed += n
			continue
		}
		if d := tableDigest(tables[i]); d != s.ref[sc.ID] {
			fmt.Fprintf(s.log, "perfbench: %s: table digest %s, reference %s\n", sc.ID, d, s.ref[sc.ID])
			p.failed += n
		}
	}
	return p
}

func tableDigest(t *trace.Table) string {
	sum := sha256.Sum256([]byte(t.String()))
	return hex.EncodeToString(sum[:])
}

// scenarioDigest runs one scenario sequentially and digests its table.
func scenarioDigest(s runner.Scenario) (string, error) {
	t, err := runner.RunSeq(s)
	if err != nil {
		return "", err
	}
	return tableDigest(t), nil
}

// coldPasses is how many cold passes esuite_warm's set-up runs, each
// into an empty store, for the median set-up time.
const coldPasses = 3

// warmSuite replays the suite against a result store that a cold pass
// filled.
type warmSuite struct {
	*suite
	dir string
}

func openWarm(e *env) (bench, []pass, error) {
	scens, npts, err := buildSuite()
	if err != nil {
		return nil, nil, err
	}
	b := warmSuite{suite: &suite{scens: scens, npts: npts, ref: e.ref.Esuite, log: e.log}}
	setups := make([]pass, coldPasses)
	for i := range setups {
		b.dir = filepath.Join(e.workdir, fmt.Sprintf("cas%d", i))
		store, err := cas.Open(cas.Options{Dir: b.dir})
		if err != nil {
			return nil, nil, err
		}
		setups[i] = b.run(b.options(store))
		setups[i].setups = []time.Duration{setups[i].wall}
	}
	return b, setups, nil
}

// options gives each pass a fresh runner registry. The store gets its
// own registry: runner and cas guard a shared one with two different
// locks, a data race that can end the process.
func (b warmSuite) options(store *cas.Store) runner.Options {
	return runner.Options{
		Parallel:     2,
		Metrics:      trace.NewRegistry(),
		Cache:        store,
		CacheVersion: ecoscale.KernelVersion,
	}
}

func (b warmSuite) pass() pass {
	reg := trace.NewRegistry()
	store, err := cas.Open(cas.Options{Dir: b.dir, ReadOnly: true, Metrics: reg})
	if err != nil {
		fmt.Fprintln(b.log, "perfbench:", err)
		return b.failAll()
	}
	p := b.run(b.options(store))
	p.counts = map[string]float64{
		"cas.hits":       float64(reg.CounterTotal(cas.MetricHits)),
		"cas.misses":     float64(reg.CounterTotal(cas.MetricMisses)),
		"cas.corrupt":    float64(reg.CounterTotal(cas.MetricCorrupt)),
		"cas.bytes_read": float64(reg.CounterTotal(cas.MetricBytesIn)),
	}
	return p
}

// ---- machine_hw ----

const (
	machineNodes   = 8  // Compute Nodes
	machinePerNode = 16 // Workers per Compute Node
	tasksPerWorker = 2
	// meanN is the centre of the task sizes, which run evenly from
	// meanN/2 to 3*meanN/2.
	meanN = 4096
)

// task is one generated machine_hw input: a target Worker and a size.
type task struct{ worker, n int }

// genTasks draws machine_hw's task stream from the seed. Every Worker
// gets perWorker tasks and the sizes are evenly spaced; the seed shuffles
// targets and sizes apart, so each seed asks for the same total work in
// a different arrangement.
func genTasks(seed int64, workers, perWorker int) []task {
	rng := rand.New(rand.NewSource(seed))
	count := workers * perWorker
	targets, sizes := rng.Perm(count), rng.Perm(count)
	ts := make([]task, count)
	for i := range ts {
		ts[i] = task{worker: targets[i] % workers, n: meanN/2 + sizes[i]*meanN/(count-1)}
	}
	return ts
}

type machineBench struct {
	tasks []task
	stats hls.RunStats
	// want is the counter digest every pass must reproduce: the
	// reference at the default seed, else the first pass's.
	want string
	log  io.Writer
}

func openMachine(e *env) (bench, []pass, error) {
	b, err := newMachineBench(e)
	return b, nil, err
}

func newMachineBench(e *env) (*machineBench, error) {
	vec := workload.VecAdd
	// The one interpreted run: the op mix every task carries.
	stats, _, err := runKernel(vec, vec.Kernel(), meanN, e.seed)
	if err != nil {
		return nil, err
	}
	b := &machineBench{
		tasks: genTasks(e.seed, machineNodes*machinePerNode, tasksPerWorker),
		stats: stats,
		log:   e.log,
	}
	if e.ref.MachineHW != "" && e.seed == e.ref.Seed {
		b.want = e.ref.MachineHW
	}
	return b, nil
}

func (b *machineBench) pass() pass {
	p := pass{attempted: len(b.tasks)}
	t0 := time.Now()
	m := ecoscale.New(ecoscale.DefaultConfig(machinePerNode, machineNodes))
	m.SetPolicy(ecoscale.PolicyHW)
	vec := workload.VecAdd
	if _, err := m.DeployKernel(vec.Source, vec.DefaultDir, 0); err != nil {
		fmt.Fprintln(b.log, "perfbench: machine_hw deploy:", err)
		p.failed = p.attempted
		return p
	}
	size := 3 * meanN / 2 * 8
	a, bb, c := m.Space.Alloc(0, size), m.Space.Alloc(0, size), m.Space.Alloc(0, size)
	done, errs := 0, 0
	for _, t := range b.tasks {
		bytes := t.n * 8
		m.Submit(t.worker, &rts.Task{
			Kernel:   vec.Name,
			Bindings: map[string]float64{"N": float64(t.n)},
			Reads:    []accel.Span{{Addr: a, Size: bytes}, {Addr: bb, Size: bytes}},
			Writes:   []accel.Span{{Addr: c, Size: bytes}},
			SWStats:  b.stats,
		}, func(_ rts.Device, err error) {
			done++
			if err != nil {
				errs++
			}
		})
	}
	start, events := m.Now(), m.EventsRun()
	p.setups = []time.Duration{time.Since(t0)}

	var end sim.Time
	p.wall, p.alloc = measure(func() { end = m.Run() })
	p.counts = machineCounts(m, end-start, m.EventsRun()-events)
	p.digest = countsDigest(p.counts)
	if b.want == "" {
		b.want = p.digest
	}
	p.failed = taskFailures(len(b.tasks), done, errs, p.counts, p.digest, b.want)
	if p.failed > 0 {
		fmt.Fprintf(b.log, "perfbench: machine_hw: %d of %d tasks failed (done %d, errors %d, digest %s, want %s)\n",
			p.failed, len(b.tasks), done, errs, p.digest, b.want)
	}
	return p
}

// machineCounts reads machine_hw's exact work counts after a run.
// sim.events and sim.makespan_us cover the timed Run; the others are
// machine totals, deployment included.
func machineCounts(m *ecoscale.Machine, makespan sim.Time, events uint64) map[string]float64 {
	reg := m.Metrics()
	var msgs uint64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "noc.msgs.") {
			msgs += c.Value
		}
	}
	var hw, cpu uint64
	m.EachSched(func(s *rts.Scheduler) {
		hw += s.Executed(rts.DeviceHW)
		cpu += s.Executed(rts.DeviceCPU)
	})
	total := func(name string) float64 { return float64(reg.CounterTotal(name)) }
	return map[string]float64{
		"sim.events":            float64(events),
		"sim.makespan_us":       makespan.Micros(),
		"noc.msgs":              float64(msgs),
		"noc.bytes":             total("noc.bytes"),
		"unimem.stream_bytes":   total("unimem.stream_bytes"),
		"unimem.cache_hits":     total("unimem.cache_hits"),
		"unilogic.calls":        total("unilogic.calls"),
		"unilogic.remote_calls": total("unilogic.remote_calls"),
		"fabric.loads":          total("fabric.loads"),
		"rts.tasks_hw":          float64(hw),
		"rts.tasks_cpu":         float64(cpu),
	}
}

func countsDigest(counts map[string]float64) string {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%v\n", n, counts[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// taskFailures counts the failed tasks of one machine_hw pass. Every
// task fails when the counters differ from the wanted digest or the
// schedulers did not execute each task once; otherwise the lost tasks
// and those that completed with an error fail.
func taskFailures(attempted, done, errs int, counts map[string]float64, digest, want string) int {
	if digest != want || int(counts["rts.tasks_hw"]+counts["rts.tasks_cpu"]) != attempted {
		return attempted
	}
	return attempted - done + errs
}

// ---- hls ----

// hlsSize is the problem size every library kernel runs at for
// hls.run_us, and hlsReps how many runs each median is taken over.
const (
	hlsSize = 32
	hlsReps = 5
)

// runKernel interprets w's kernel k at size n on inputs drawn from seed
// and checks the output against w's golden model.
func runKernel(w workload.Workload, k *hls.Kernel, n int, seed int64) (hls.RunStats, time.Duration, error) {
	args, _ := w.Make(n, sim.NewRNG(seed))
	t0 := time.Now()
	st, err := hls.Run(k, args)
	dt := time.Since(t0)
	if err != nil {
		return st, dt, fmt.Errorf("hls %s: %w", w.Name, err)
	}
	if w.Golden != nil {
		idx, want := w.Golden(args, n)
		got := args[idx].Buf
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*math.Max(1, math.Abs(want[i])) {
				return st, dt, fmt.Errorf("hls %s: output[%d] = %v, golden %v", w.Name, i, got[i], want[i])
			}
		}
	}
	return st, dt, nil
}

// hlsRuns times hls.Run on each library kernel and returns the median
// microseconds per kernel name.
func hlsRuns(seed int64) (map[string]float64, error) {
	us := map[string]float64{}
	for _, w := range workload.Registry() {
		k := w.Kernel()
		ts := make([]float64, hlsReps)
		for i := range ts {
			_, dt, err := runKernel(w, k, hlsSize, seed+int64(i))
			if err != nil {
				return nil, err
			}
			ts[i] = float64(dt.Nanoseconds()) / 1e3
		}
		us[w.Name] = median(ts)
	}
	return us, nil
}
