package experiments

// E14–E15: tool-flow experiments (end-to-end SW/HW equivalence through
// the Fig. 2 stack, and the HLS design-space exploration of §4.3).

import (
	"context"
	"fmt"
	"math"

	"ecoscale"
	"ecoscale/internal/fabric"
	"ecoscale/internal/hls"
	"ecoscale/internal/ocl"
	"ecoscale/internal/rts"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
)

// scenE14 pushes every built-in kernel through the full Fig. 2/5 flow —
// parse → synthesize → partial reconfiguration → runtime dispatch →
// OpenCL host readback — on both the CPU and hardware paths, verifying
// bit-level result agreement and reporting the timing of each path.
// One point per kernel; each point runs both policies on its own pair
// of machines.
func scenE14() runner.Scenario {
	return runner.Scenario{
		ID: "E14", Title: "End-to-end flow, SW/HW equivalence", Source: "Fig. 2, Fig. 5",
		Table:   "E14: end-to-end flow, software vs hardware execution",
		Columns: []string{"kernel", "n", "cpu path", "hw path", "hw/cpu", "results"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, w := range ecoscale.Kernels() {
				pts = append(pts, runner.Point{
					Label: w.Name,
					Run: func(context.Context) (runner.Row, error) {
						// Streaming kernels get a size where hardware pays off; the
						// O(N²)/O(N³) kernels stay small to keep software runs cheap.
						n := 4096
						if w.Name == "matmul" || w.Name == "stencil2d" || w.Name == "nbody" {
							n = 16
						}
						var out [2][]float64
						var times [2]sim.Time
						for pi, policy := range []rts.Policy{rts.PolicyCPU{}, rts.PolicyHW{}} {
							m := ecoscale.New(ecoscale.DefaultConfig(2, 1))
							ctx := ecoscale.NewPlatform(m).CreateContext()
							prog, err := ctx.CreateProgram(w.Source)
							if err != nil {
								return runner.Row{}, err
							}
							if err := prog.Build(w.DefaultDir); err != nil {
								return runner.Row{}, err
							}
							if err := prog.DeployTo(w.Name, 0); err != nil {
								return runner.Row{}, err
							}
							m.SetPolicy(policy)
							rng := sim.NewRNG(99)
							args, _ := w.Make(n, rng)
							k := w.Kernel()
							var oclArgs []ocl.Arg
							var bufs []*ocl.Buffer
							for i, p := range k.Params {
								if p.IsBuffer {
									b := ctx.CreateBuffer(len(args[i].Buf), ocl.OnWorker, 0)
									b.Poke(args[i].Buf)
									bufs = append(bufs, b)
									oclArgs = append(oclArgs, ocl.BufArg(b))
								} else {
									bufs = append(bufs, nil)
									oclArgs = append(oclArgs, ocl.ScalarArg(args[i].Scalar))
								}
							}
							start := m.Eng.Now()
							ev := ctx.CreateQueue(0).EnqueueKernel(prog, w.Name, oclArgs, nil)
							if err := ctx.WaitAll(ev); err != nil {
								return runner.Row{}, fmt.Errorf("E14 %s: %w", w.Name, err)
							}
							times[pi] = m.Eng.Now() - start
							out[pi] = nil
							for _, b := range bufs {
								if b != nil {
									out[pi] = append(out[pi], b.Peek()...)
								}
							}
						}
						match := "match"
						for i := range out[0] {
							if math.Abs(out[0][i]-out[1][i]) > 1e-9*math.Max(1, math.Abs(out[0][i])) {
								match = fmt.Sprintf("MISMATCH at %d", i)
								break
							}
						}
						if match != "match" {
							return runner.Row{}, fmt.Errorf("E14 %s: %s", w.Name, match)
						}
						return runner.R(w.Name, n, fmt.Sprint(times[0]), fmt.Sprint(times[1]),
							fmt.Sprintf("%.2f", float64(times[1])/float64(times[0])), match), nil
					},
				})
			}
			return pts, nil
		},
	}
}

// scenE15 runs the automatic design-space exploration of §4.3 on the
// matmul and stencil kernels and prints the Pareto frontier (area vs
// cycles), plus the constrained pick for a one-region budget. One point
// per kernel; a point contributes the frontier rows plus the
// constrained row.
func scenE15() runner.Scenario {
	return runner.Scenario{
		ID: "E15", Title: "HLS design-space exploration", Source: "§4.3 constraints",
		Table:   "E15: HLS design-space exploration (Pareto frontier)",
		Columns: []string{"kernel", "directives", "II", "depth", "area (LUT-eq)", "cycles", "note"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, name := range []string{"matmul", "stencil2d"} {
				pts = append(pts, runner.Point{
					Label: name,
					Run: func(context.Context) (runner.Row, error) {
						budget := fabric.DefaultConfig().PerRegion
						w, err := ecoscale.KernelByName(name)
						if err != nil {
							return runner.Row{}, err
						}
						bind := map[string]float64{"N": 64}
						front, err := hls.Explore(w.Kernel(), fabric.Resources{}, bind)
						if err != nil {
							return runner.Row{}, err
						}
						var row runner.Row
						for i, pt := range front {
							note := ""
							if i == 0 {
								note = "fastest"
							}
							if i == len(front)-1 {
								note = "smallest"
							}
							row.Cells = append(row.Cells, []any{name, pt.Impl.Dir.String(), pt.Impl.II(), pt.Impl.Depth(),
								pt.Area, pt.Cycles, note})
						}
						constrained, err := hls.Fastest(w.Kernel(), budget, bind)
						if err != nil {
							return runner.Row{}, err
						}
						cycles, _ := constrained.Cycles(bind)
						row.Cells = append(row.Cells, []any{name, constrained.Dir.String(), constrained.II(), constrained.Depth(),
							hls.AreaScalar(constrained.Area), cycles, "fastest within 1 region"})
						return row, nil
					},
				})
			}
			return pts, nil
		},
	}
}
