package hls

// This file preserves the original tree-walking interpreter as a test
// oracle: the differential tests run it against the compiled executor
// (Run) and require identical outputs, RunStats and error strings. It
// must stay semantically frozen; do not optimize it.

import (
	"fmt"
	"math"
)

// env is an execution environment.
type env struct {
	scalars map[string]float64
	buffers map[string][]float64
	ops     uint64 // dynamic op count, for the SW cost model
	loads   uint64
	stores  uint64
	flops   uint64
}

// oracleRun is Run as a direct interpretation of the AST over name maps.
func oracleRun(k *Kernel, args []Value) (RunStats, error) {
	if len(args) != len(k.Params) {
		return RunStats{}, fmt.Errorf("hls: kernel %s takes %d args, got %d", k.Name, len(k.Params), len(args))
	}
	e := &env{scalars: map[string]float64{}, buffers: map[string][]float64{}}
	for i, p := range k.Params {
		if p.IsBuffer {
			if args[i].Buf == nil {
				return RunStats{}, fmt.Errorf("hls: arg %d (%s) must be a buffer", i, p.Name)
			}
			e.buffers[p.Name] = args[i].Buf
		} else {
			v := args[i].Scalar
			if p.Type == Int {
				v = math.Trunc(v)
			}
			e.scalars[p.Name] = v
		}
	}
	if err := e.execBlock(k.Body); err != nil {
		return RunStats{}, err
	}
	return RunStats{Ops: e.ops, Flops: e.flops, Loads: e.loads, Stores: e.stores}, nil
}

func (e *env) execBlock(stmts []Stmt) error {
	for _, s := range stmts {
		if err := e.exec(s); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) exec(s Stmt) error {
	switch st := s.(type) {
	case *Assign:
		v, err := e.eval(st.Value)
		if err != nil {
			return err
		}
		if st.DeclType != nil && *st.DeclType == Int {
			v = math.Trunc(v)
		}
		if st.Index == nil {
			e.scalars[st.Target] = v
			return nil
		}
		idx, err := e.evalIndex(st.Target, st.Index)
		if err != nil {
			return err
		}
		e.buffers[st.Target][idx] = v
		e.stores++
		return nil
	case *For:
		if err := e.exec(st.Init); err != nil {
			return err
		}
		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				return fmt.Errorf("hls: loop exceeded %d iterations", maxIterations)
			}
			c, err := e.eval(st.Cond)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := e.execBlock(st.Body); err != nil {
				return err
			}
			if err := e.exec(st.Post); err != nil {
				return err
			}
		}
	case *If:
		c, err := e.eval(st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return e.execBlock(st.Then)
		}
		return e.execBlock(st.Else)
	case *LocalDecl:
		if _, exists := e.buffers[st.Name]; exists {
			return fmt.Errorf("hls: local array %q shadows a buffer", st.Name)
		}
		if _, exists := e.scalars[st.Name]; exists {
			return fmt.Errorf("hls: local array %q shadows a scalar", st.Name)
		}
		e.buffers[st.Name] = make([]float64, st.Size)
		return nil
	default:
		return fmt.Errorf("hls: unknown statement %T", s)
	}
}

func (e *env) evalIndex(buf string, idx Expr) (int, error) {
	b, ok := e.buffers[buf]
	if !ok {
		return 0, fmt.Errorf("hls: %q is not a buffer", buf)
	}
	iv, err := e.eval(idx)
	if err != nil {
		return 0, err
	}
	i := int(iv)
	if i < 0 || i >= len(b) {
		return 0, fmt.Errorf("hls: index %d out of range for buffer %q (len %d)", i, buf, len(b))
	}
	return i, nil
}

func (e *env) eval(x Expr) (float64, error) {
	switch ex := x.(type) {
	case *Num:
		return ex.Value, nil
	case *Var:
		v, ok := e.scalars[ex.Name]
		if !ok {
			if _, isBuf := e.buffers[ex.Name]; isBuf {
				return 0, fmt.Errorf("hls: buffer %q used as scalar", ex.Name)
			}
			return 0, fmt.Errorf("hls: undefined variable %q", ex.Name)
		}
		return v, nil
	case *Index:
		i, err := e.evalIndex(ex.Name, ex.Idx)
		if err != nil {
			return 0, err
		}
		e.loads++
		return e.buffers[ex.Name][i], nil
	case *Unary:
		v, err := e.eval(ex.X)
		if err != nil {
			return 0, err
		}
		e.ops++
		if ex.Op == "!" {
			return oracleBool(v == 0), nil
		}
		return -v, nil
	case *Binary:
		l, err := e.eval(ex.L)
		if err != nil {
			return 0, err
		}
		// Short-circuit logicals.
		switch ex.Op {
		case "&&":
			e.ops++
			if l == 0 {
				return 0, nil
			}
			r, err := e.eval(ex.R)
			if err != nil {
				return 0, err
			}
			return oracleBool(r != 0), nil
		case "||":
			e.ops++
			if l != 0 {
				return 1, nil
			}
			r, err := e.eval(ex.R)
			if err != nil {
				return 0, err
			}
			return oracleBool(r != 0), nil
		}
		r, err := e.eval(ex.R)
		if err != nil {
			return 0, err
		}
		e.ops++
		if l != math.Trunc(l) || r != math.Trunc(r) {
			e.flops++
		}
		switch ex.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("hls: division by zero")
			}
			return l / r, nil
		case "%":
			ri := int64(r)
			if ri == 0 {
				return 0, fmt.Errorf("hls: modulo by zero")
			}
			return float64(int64(l) % ri), nil
		case "<":
			return oracleBool(l < r), nil
		case "<=":
			return oracleBool(l <= r), nil
		case ">":
			return oracleBool(l > r), nil
		case ">=":
			return oracleBool(l >= r), nil
		case "==":
			return oracleBool(l == r), nil
		case "!=":
			return oracleBool(l != r), nil
		default:
			return 0, fmt.Errorf("hls: unknown operator %q", ex.Op)
		}
	case *Call:
		args := make([]float64, len(ex.Args))
		for i, a := range ex.Args {
			v, err := e.eval(a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		e.ops++
		e.flops++
		switch ex.Name {
		case "sqrt":
			if args[0] < 0 {
				return 0, fmt.Errorf("hls: sqrt of negative %v", args[0])
			}
			return math.Sqrt(args[0]), nil
		case "exp":
			return math.Exp(args[0]), nil
		case "log":
			if args[0] <= 0 {
				return 0, fmt.Errorf("hls: log of non-positive %v", args[0])
			}
			return math.Log(args[0]), nil
		case "abs":
			return math.Abs(args[0]), nil
		case "floor":
			return math.Floor(args[0]), nil
		case "min":
			return math.Min(args[0], args[1]), nil
		case "max":
			return math.Max(args[0], args[1]), nil
		default:
			return 0, fmt.Errorf("hls: unknown builtin %q", ex.Name)
		}
	default:
		return 0, fmt.Errorf("hls: unknown expression %T", x)
	}
}

func oracleBool(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// oracleConstEval is constEval over the oracle interpreter.
func oracleConstEval(e Expr, bindings map[string]float64) (float64, error) {
	env := &env{scalars: bindings, buffers: map[string][]float64{}}
	return env.eval(e)
}

// OracleRun exposes oracleRun to the external differential tests.
var OracleRun = oracleRun

// SetMaxIterations tightens the loop cap for a test and returns the
// function that restores it.
func SetMaxIterations(n int) (restore func()) {
	old := maxIterations
	maxIterations = n
	return func() { maxIterations = old }
}
