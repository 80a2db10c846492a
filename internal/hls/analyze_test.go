package hls

import "testing"

// expr parses an expression by wrapping it in a kernel skeleton.
func expr(t *testing.T, e string) (Expr, *typeEnv) {
	t.Helper()
	k := MustParse(`kernel f(global float* A, global int* B, int N, float alpha) { x = ` + e + `; }`)
	te := newTypeEnv(k)
	te.learn(k.Body)
	return k.Body[0].(*Assign).Value, te
}

func TestExprTypeInference(t *testing.T) {
	cases := []struct {
		src  string
		want Type
	}{
		{"1", Int},
		{"1.5", Float},
		{"N", Int},
		{"alpha", Float},
		{"A[0]", Float},
		{"B[0]", Int},
		{"N + 1", Int},
		{"N + alpha", Float},
		{"N < 3", Int},
		{"N % 2", Int},
		{"!N", Int},
		{"-alpha", Float},
		{"sqrt(alpha)", Float},
		{"floor(alpha)", Int},
		{"N && 1", Int},
	}
	for _, c := range cases {
		e, te := expr(t, c.src)
		if got := te.exprType(e); got != c.want {
			t.Errorf("type(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestExprChainLatency(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"1", 0},
		{"N", 0},
		{"A[0]", opLatency[OpLoad]},
		{"N + 1", opLatency[OpIAdd]},
		{"alpha + 1.0", opLatency[OpFAdd]},
		{"alpha * alpha + 1.0", opLatency[OpFMul] + opLatency[OpFAdd]},
		{"A[N] * 2.0", opLatency[OpLoad] + opLatency[OpFMul]},
		{"sqrt(alpha)", opLatency[OpSpecial]},
		{"min(alpha, 1.0)", opLatency[OpCmp]},
		{"-alpha", opLatency[OpFAdd]},
		{"-N", opLatency[OpIAdd]},
	}
	for _, c := range cases {
		e, te := expr(t, c.src)
		if got := exprChainLatency(te, e); got != c.want {
			t.Errorf("chainLatency(%s) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestCyclePathLatency(t *testing.T) {
	cases := []struct {
		src  string
		v    string
		want int // -1 when the variable is not read
	}{
		{"x + 1.0", "x", opLatency[OpFAdd]},
		{"alpha + 1.0", "x", -1},
		{"x * alpha + beta", "x", opLatency[OpFMul] + opLatency[OpFAdd]},
		{"A[x]", "x", opLatency[OpLoad]},
		{"min(x, 1.0)", "x", opLatency[OpCmp]},
		{"sqrt(x)", "x", opLatency[OpSpecial]},
		{"-x", "x", opLatency[OpFAdd]},
		{"x", "x", 0},
		{"5", "x", -1},
	}
	for _, c := range cases {
		k := MustParse(`kernel f(global float* A, int N, float alpha, float beta, float x) { y = ` + c.src + `; }`)
		te := newTypeEnv(k)
		te.learn(k.Body)
		e := k.Body[0].(*Assign).Value
		if got := cyclePathLatency(te, e, c.v); got != c.want {
			t.Errorf("cyclePath(%s, %s) = %d, want %d", c.src, c.v, got, c.want)
		}
	}
}

func TestReadsVar(t *testing.T) {
	cases := []struct {
		src  string
		v    string
		want bool
	}{
		{"x + 1.0", "x", true},
		{"alpha", "x", false},
		{"A[x + 1]", "x", true},
		{"min(1.0, x)", "x", true},
		{"-x", "x", true},
		{"N * 2", "x", false},
	}
	for _, c := range cases {
		k := MustParse(`kernel f(global float* A, int N, float alpha, float x) { y = ` + c.src + `; }`)
		e := k.Body[0].(*Assign).Value
		if got := readsVar(e, c.v); got != c.want {
			t.Errorf("readsVar(%s, %s) = %v, want %v", c.src, c.v, got, c.want)
		}
	}
}

func TestBinOpKinds(t *testing.T) {
	cases := []struct {
		src  string
		want OpKind
	}{
		{"N + 1", OpIAdd},
		{"alpha + 1.0", OpFAdd},
		{"N * 2", OpIMul},
		{"alpha * 2.0", OpFMul},
		{"N / 2", OpIDiv},
		{"alpha / 2.0", OpFDiv},
		{"N % 2", OpIDiv},
		{"N < 2", OpCmp},
		{"N == 2", OpCmp},
	}
	for _, c := range cases {
		e, te := expr(t, c.src)
		bin, ok := e.(*Binary)
		if !ok {
			t.Fatalf("%s did not parse to a binary", c.src)
		}
		if got := binOpKind(bin, te); got != c.want {
			t.Errorf("binOpKind(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestStraightLineKernelCycles(t *testing.T) {
	// No loops: blockCycles walks the assign chain latencies directly,
	// exercising exprChainLatency through the public API.
	k := MustParse(`
kernel f(global float* A, int N, float alpha) {
    float a = alpha * 2.0;
    float b = a + 3.0;
    if (N > 0) {
        A[0] = b;
    } else {
        A[0] = a / 2.0;
    }
}`)
	im, err := Synthesize(k, DefaultDirectives())
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := im.Cycles(map[string]float64{"N": 1, "alpha": 2})
	if err != nil {
		t.Fatal(err)
	}
	// fmul(5) + fadd(4) + if(max(branches)+1) + overhead(20).
	if cycles <= im.CallOverheadCycles {
		t.Errorf("cycles = %d, want above overhead", cycles)
	}
	if im.II() != 1 || im.Depth() != 1 {
		t.Errorf("loopless kernel II/depth = %d/%d, want 1/1", im.II(), im.Depth())
	}
}

func TestTripCountNegativeAndFloatBounds(t *testing.T) {
	// Negative trip counts clamp to zero.
	k := MustParse(`kernel f(global float* A, int N) { for (i = 5; i < N; i++) { A[0] = i; } }`)
	loop := k.Body[0].(*For)
	m := k.scalars()
	got, err := m.tripCount(loop, m.frame(map[string]float64{"N": 2}))
	if err != nil || got != 0 {
		t.Errorf("negative range trip = %d, %v", got, err)
	}
}

func TestBodyDFGNestedDetection(t *testing.T) {
	k := MustParse(`
kernel f(global float* A, int N) {
    for (i = 0; i < N; i++) {
        for (j = 0; j < N; j++) {
            A[i*N+j] = 0.0;
        }
    }
}`)
	te := newTypeEnv(k)
	te.learn(k.Body)
	outer := k.Body[0].(*For)
	if _, innermost := bodyDFG(te, outer.Body); innermost {
		t.Error("outer body with nested loop reported as innermost")
	}
	inner := outer.Body[0].(*For)
	ops, innermost := bodyDFG(te, inner.Body)
	if !innermost || len(ops) == 0 {
		t.Error("inner body not analyzable")
	}
}
