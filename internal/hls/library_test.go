package hls_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
	"ecoscale/internal/workload"
)

// cloneArgs deep-copies kernel arguments so two executors can run on
// identical inputs.
func cloneArgs(args []hls.Value) []hls.Value {
	out := make([]hls.Value, len(args))
	for i, a := range args {
		out[i] = a
		if a.Buf != nil {
			out[i].Buf = append([]float64{}, a.Buf...)
		}
	}
	return out
}

// sameFloat compares bit patterns, so a sign-of-zero difference shows;
// any two NaNs match.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// agree runs k through the compiled executor and the oracle on copies of
// args and reports the first difference in error text, RunStats or
// buffer contents.
func agree(k *hls.Kernel, args []hls.Value) error {
	got, want := cloneArgs(args), cloneArgs(args)
	st, err := hls.Run(k, got)
	ost, oerr := hls.OracleRun(k, want)
	if fmt.Sprint(err) != fmt.Sprint(oerr) {
		return fmt.Errorf("error %v, oracle %v", err, oerr)
	}
	if st != ost {
		return fmt.Errorf("stats %+v, oracle %+v", st, ost)
	}
	for i := range got {
		for j := range got[i].Buf {
			if !sameFloat(got[i].Buf[j], want[i].Buf[j]) {
				return fmt.Errorf("arg %d[%d] = %v, oracle %v", i, j, got[i].Buf[j], want[i].Buf[j])
			}
		}
	}
	return nil
}

// TestCompiledMatchesOracleLibrary is the differential property: over
// every library kernel, random sizes and random arguments — including
// integral data, which changes the flop count, and scalar sizes that
// overrun the buffers — the compiled executor and the frozen oracle
// produce identical outputs, RunStats and errors.
func TestCompiledMatchesOracleLibrary(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, w := range workload.Registry() {
		k := w.Kernel()
		for trial := 0; trial < 25; trial++ {
			n := r.Intn(40)
			args, _ := w.Make(n, sim.NewRNG(r.Int63()))
			for i, p := range k.Params {
				switch {
				case p.IsBuffer && r.Intn(3) == 0:
					for j := range args[i].Buf {
						args[i].Buf[j] = math.Round(args[i].Buf[j] * 4)
					}
				case !p.IsBuffer && r.Intn(4) == 0:
					args[i].Scalar += float64(r.Intn(7) - 3)
				case !p.IsBuffer && r.Intn(4) == 0:
					args[i].Scalar = r.NormFloat64() * 10
				}
			}
			if err := agree(k, args); err != nil {
				t.Fatalf("%s n=%d trial %d: %v", w.Name, n, trial, err)
			}
		}
	}
}

// edgeKernels pin the dynamic semantics the compiled executor keeps:
// every runtime error, one flat scope, errors raised only on the path
// that runs, evaluation order and the flop rule.
var edgeKernels = map[string]string{
	"oob store":        `kernel f(global float* A, int N) { A[N] = 1.0; }`,
	"oob load":         `kernel f(global float* A, int N) { A[0] = A[N - 9]; }`,
	"div zero":         `kernel f(global float* A, int N) { A[0] = 1.0 / (N - N); }`,
	"mod zero":         `kernel f(global float* A, int N) { A[0] = 5 % (N - N); }`,
	"mod trunc":        `kernel f(global float* A, int N) { A[0] = 7.9 % 2.5; A[1] = (0 - 7) % 3; }`,
	"undef var":        `kernel f(global float* A, int N) { A[0] = q; }`,
	"buffer as scalar": `kernel f(global float* A, int N) { A[0] = A + 1.0; }`,
	"scalar as buffer": `kernel f(global float* A, int N) { A[0] = N[0]; }`,
	"store to scalar":  `kernel f(global float* A, int N) { N[0] = 1.0; }`,
	"store to unknown": `kernel f(global float* A, int N) { B[q] = 1.0; }`,
	"value before idx": `kernel f(global float* A, int N) { A[q] = r; }`,
	"sqrt neg":         `kernel f(global float* A, int N) { A[0] = sqrt(0.0 - N); }`,
	"log nonpos":       `kernel f(global float* A, int N) { A[0] = log(N - N); }`,
	"shadow buffer":    `kernel f(global float* A, int N) { local float A[4]; }`,
	"shadow scalar":    `kernel f(global float* A, int N) { local float N[4]; }`,
	"shadow assigned":  `kernel f(global float* A, int N) { x = 1; local float x[2]; }`,
	"local in loop":    `kernel f(global float* A, int N) { for (i = 0; i < N; i++) { local float t[2]; t[0] = i; A[i] = t[0]; } }`,
	"local then scalar": `kernel f(global float* A, int N) {
		local float t[2]; t[1] = 3.0; t = 2.0; A[0] = t + t[1]; }`,
	"scalar shadows param buffer": `kernel f(global float* A, int N) { A = 2.5; A[1] = A * A[0]; A[0] = A; }`,
	"defined on one path": `kernel f(global float* A, int N) {
		if (N > 2) { x = 1.5; } A[0] = x; }`,
	"defined in loop body": `kernel f(global float* A, int N) {
		for (i = 0; i < N; i++) { if (i > 0) { A[i] = last; } last = i * 0.5; } A[0] = last; }`,
	"read before assign in loop": `kernel f(global float* A, int N) {
		for (i = 0; i < N; i++) { A[i] = y; y = i; } }`,
	"int decl truncates": `kernel f(global float* A, int N) {
		int h = N / 2; float g = N / 2; int m = 0.0 - 2.5; A[0] = h; A[1] = g; A[2] = m; }`,
	"int param truncates": `kernel f(global float* A, int N) { A[0] = N; A[1] = N * 0.5; }`,
	"short circuit": `kernel f(global float* A, int N) {
		if (N > 100 && 1 / (N - N) > 0) { A[0] = 1.0; }
		if (N < 100 || 1 / (N - N) > 0) { A[1] = 1.0; }
		A[2] = (N && 0.0) + (0.0 || N) + !N + !(0.0); }`,
	"short circuit error": `kernel f(global float* A, int N) { A[0] = N > 0 && q; }`,
	"flop rule": `kernel f(global float* A, int N) {
		A[0] = 2 * 3; A[1] = 2.5 * 2; A[2] = N * 1.0; A[3] = -N; A[4] = floor(2.5) + abs(0 - 3);
		A[5] = min(N, 2.5) + max(N, 2.5) + exp(0) + log(1.0) + sqrt(N * N); }`,
	"comparisons": `kernel f(global float* A, int N) {
		A[0] = (N < 3) + (N <= 3) * 2 + (N > 3) * 4 + (N >= 3) * 8 + (N == 3) * 16 + (N != 3) * 32; }`,
	"nan index":     `kernel f(global float* A, int N) { A[0] = A[sqrt(N) * 0.0 / 0.0 + 0]; }`,
	"error mid run": `kernel f(global float* A, int N) { for (i = 0; i < 8; i++) { A[i] = 1.0 / (3 - i); } }`,
	"nested else if": `kernel f(global float* A, int N) {
		for (i = 0; i < N; i++) { if (i % 3 == 0) { A[i] = 1; } else if (i % 3 == 1) { A[i] = 2; } else { A[i] = 3; } } }`,
	"countdown": `kernel f(global float* A, int N) { for (i = N - 1; i >= 0; i--) { A[i] -= i; A[i] *= 2; A[i] += 1; } }`,
	"loop cap":  `kernel f(global float* A, int N) { for (i = 0; i < 1; i = i * 1) { A[0] = i; } }`,
	"loop cap nested": `kernel f(global float* A, int N) {
		for (i = 0; i < 40; i++) { for (j = 0; j < i; j++) { A[0] += j; } } }`,
}

func TestCompiledMatchesOracleEdges(t *testing.T) {
	defer hls.SetMaxIterations(30)()
	for name, src := range edgeKernels {
		k, err := hls.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		for _, n := range []float64{0, 1, 3, 4, 7.5, 9, -2} {
			args := []hls.Value{hls.B([]float64{1, -2, 3.5, 4, 0, 6, 7, 8}), hls.S(n)}
			if name == "scalar shadows param buffer" {
				args[0] = hls.S(1) // not a buffer: the arg check fails first
				if n > 0 {
					args[0] = hls.B([]float64{1, 2})
				}
			}
			if err := agree(k, args); err != nil {
				t.Errorf("%s N=%v: %v", name, n, err)
			}
		}
	}
}

// TestCompiledExecutorErrors pins the error texts themselves, not just
// their agreement with the oracle.
func TestCompiledExecutorErrors(t *testing.T) {
	defer hls.SetMaxIterations(30)()
	want := map[string]string{
		"oob store":        `hls: index 9 out of range for buffer "A" (len 8)`,
		"div zero":         `hls: division by zero`,
		"mod zero":         `hls: modulo by zero`,
		"undef var":        `hls: undefined variable "q"`,
		"buffer as scalar": `hls: buffer "A" used as scalar`,
		"scalar as buffer": `hls: "N" is not a buffer`,
		"value before idx": `hls: undefined variable "r"`,
		"sqrt neg":         `hls: sqrt of negative -9`,
		"log nonpos":       `hls: log of non-positive 0`,
		"shadow buffer":    `hls: local array "A" shadows a buffer`,
		"shadow scalar":    `hls: local array "N" shadows a scalar`,
		"local in loop":    `hls: local array "t" shadows a buffer`,
		"loop cap":         `hls: loop exceeded 30 iterations`,
	}
	for name, msg := range want {
		k := hls.MustParse(edgeKernels[name])
		_, err := hls.Run(k, []hls.Value{hls.B(make([]float64, 8)), hls.S(9)})
		if fmt.Sprint(err) != msg {
			t.Errorf("%s: error %v, want %s", name, err, msg)
		}
	}
}

// TestSharedKernelConcurrentRuns runs one kernel from many goroutines,
// the way runner points and ocl tasks share library kernels: the
// compiled form is built once, race-free, and every run is independent.
func TestSharedKernelConcurrentRuns(t *testing.T) {
	w := workload.CARTSplit
	k := hls.MustParse(w.Source) // fresh: the first runs race to compile it
	args, _ := w.Make(256, sim.NewRNG(3))
	want, err := hls.OracleRun(k, cloneArgs(args))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				st, err := hls.Run(k, cloneArgs(args))
				if err == nil && st != want {
					err = fmt.Errorf("stats %+v, want %+v", st, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// fuzzArgs builds small arguments for any parameter list: buffers of
// n*n+16 elements holding small integers (valid indices for the
// indirect kernels) and fractions, int scalars n and float scalars x.
func fuzzArgs(k *hls.Kernel, n uint8, x float64) []hls.Value {
	size := int(n % 33)
	args := make([]hls.Value, len(k.Params))
	for i, p := range k.Params {
		switch {
		case p.IsBuffer:
			b := make([]float64, size*size+16)
			for j := range b {
				b[j] = float64((j*7+i)%(size+1)) + float64(j%3)*0.25
			}
			args[i] = hls.B(b)
		case p.Type == hls.Int:
			args[i] = hls.S(float64(size))
		default:
			args[i] = hls.S(x)
		}
	}
	return args
}

// FuzzParseRun drives the kernel-language surface end to end: lex,
// parse and run arbitrary source on small generated arguments. It must
// never panic, and whenever the source parses, the compiled executor
// must agree with the oracle. The seed corpus (the library kernels and
// the edge kernels) runs under plain go test.
func FuzzParseRun(f *testing.F) {
	for _, w := range workload.Registry() {
		f.Add(w.Source, uint8(12), 0.5)
	}
	for _, src := range edgeKernels {
		f.Add(src, uint8(9), -1.5)
	}
	f.Fuzz(func(t *testing.T, src string, n uint8, x float64) {
		k, err := hls.Parse(src)
		if err != nil {
			return
		}
		defer hls.SetMaxIterations(256)()
		if err := agree(k, fuzzArgs(k, n, x)); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkRun times the compiled executor on each library kernel at
// its workload.BenchN size; BenchmarkOracleRun times the frozen oracle
// on the same inputs, so one host yields both sides of the speedup.
func BenchmarkRun(b *testing.B)       { benchLibrary(b, hls.Run) }
func BenchmarkOracleRun(b *testing.B) { benchLibrary(b, hls.OracleRun) }

func benchLibrary(b *testing.B, run func(*hls.Kernel, []hls.Value) (hls.RunStats, error)) {
	for _, w := range workload.Registry() {
		b.Run(w.Name, func(b *testing.B) {
			k := w.Kernel()
			args, _ := w.Make(workload.BenchN(w), sim.NewRNG(1))
			if _, err := run(k, args); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run(k, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
