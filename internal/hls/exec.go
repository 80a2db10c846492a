package hls

import (
	"errors"
	"fmt"
	"math"
)

// Value is a kernel argument: a scalar or a buffer. All numeric values
// are float64 internally; int-typed contexts truncate.
type Value struct {
	Scalar float64
	Buf    []float64
}

// S makes a scalar argument.
func S(v float64) Value { return Value{Scalar: v} }

// B makes a buffer argument (shared, mutated in place).
func B(buf []float64) Value { return Value{Buf: buf} }

// RunStats reports the dynamic operation mix of one kernel execution,
// consumed by the runtime's execution-time and energy models (§4.2).
type RunStats struct {
	Ops    uint64 // all arithmetic/compare ops
	Flops  uint64 // floating-point subset
	Loads  uint64 // buffer reads
	Stores uint64 // buffer writes
}

// maxIterations defends against non-terminating loops; a variable so
// tests can tighten it.
var maxIterations = 1 << 28

// The executor. A resolve pass binds every name a kernel mentions to one
// slot of a per-run frame: a name's scalar value, its "assigned yet"
// flag and its buffer (a parameter or a local array) all live in that
// slot, so the single flat scope of the language costs an index, not a
// map lookup. Literals get slots of their own, and a scalar read that
// follows an assignment on every path skips the "assigned yet" check.
// Operators and builtins become closures chosen at compile time. The
// dynamic semantics are those of a direct interpretation of
// the AST: an error is raised only by the operation that hits it, when
// it runs, and stops the kernel there. Such an error travels as a
// fault panic up to Run, which returns it, so the closures carry no
// error results and no checks on the success path.

// Run executes the kernel with positional args, mutating buffer args in
// place, and returns the dynamic op statistics. The kernel is compiled
// on its first Run and the compiled form is reused afterwards, so a
// kernel must not be modified once it has run.
func Run(k *Kernel, args []Value) (st RunStats, err error) {
	if len(args) != len(k.Params) {
		return RunStats{}, fmt.Errorf("hls: kernel %s takes %d args, got %d", k.Name, len(k.Params), len(args))
	}
	p := k.compiled()
	f := newFrame(p.slots, p.consts)
	for i, prm := range k.Params {
		s := &f.slots[p.params[i]]
		if prm.IsBuffer {
			if args[i].Buf == nil {
				return RunStats{}, fmt.Errorf("hls: arg %d (%s) must be a buffer", i, prm.Name)
			}
			s.buf = args[i].Buf
		} else {
			v := args[i].Scalar
			if prm.Type == Int {
				v = math.Trunc(v)
			}
			s.v, s.def = v, true
		}
	}
	defer catch(&err)
	runBlock(f, p.body)
	return f.st, nil
}

// compiled returns the kernel's compiled form, building it on first use.
func (k *Kernel) compiled() *program {
	k.once.Do(func() {
		c := newCompiler()
		params := make([]int, len(k.Params))
		for i, prm := range k.Params {
			params[i] = c.slot(prm.Name)
			if !prm.IsBuffer {
				c.define(params[i])
			}
		}
		body := c.block(k.Body)
		k.prog = &program{slots: c.slots, consts: c.consts, params: params, body: body}
	})
	return k.prog
}

// scalarModel is what the cycle model evaluates over scalar bindings
// alone, with no buffers: the value of every scalar (non-indexed)
// assignment and every loop's init value, bound and step. The
// expressions share one slot space, so a frame of it holds the bindings
// the cycle model threads through a kernel.
type scalarModel struct {
	names  map[string]int
	slots  int
	consts []constValue
	exprs  map[Expr]scalarExpr
}

// scalarExpr is one compiled expression and, for an assignment value or
// a loop init, the slot of the name it binds.
type scalarExpr struct {
	x      operand
	target int
}

// scalars returns the kernel's scalar model, building it on first use.
func (k *Kernel) scalars() *scalarModel {
	k.scalarOnce.Do(func() { k.scalar = compileScalarModel(k.Body) })
	return k.scalar
}

func compileScalarModel(body []Stmt) *scalarModel {
	c := newCompiler()
	exprs := map[Expr]scalarExpr{}
	bind := func(e Expr, target string) {
		exprs[e] = scalarExpr{x: c.operand(e), target: c.slot(target)}
	}
	var walk func([]Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *Assign:
				if st.Index == nil {
					bind(st.Value, st.Target)
				}
			case *If:
				walk(st.Then)
				walk(st.Else)
			case *For:
				bind(st.Init.Value, st.Init.Target)
				if cond, ok := st.Cond.(*Binary); ok {
					exprs[cond.R] = scalarExpr{x: c.operand(cond.R)}
				}
				if post, ok := st.Post.Value.(*Binary); ok {
					exprs[post.R] = scalarExpr{x: c.operand(post.R)}
				}
				walk(st.Body)
			}
		}
	}
	walk(body)
	return &scalarModel{names: c.names, slots: c.slots, consts: c.consts, exprs: exprs}
}

// frame returns a frame holding the given bindings.
func (m *scalarModel) frame(bindings map[string]float64) *frame {
	f := newFrame(m.slots, m.consts)
	for name, v := range bindings {
		if s, ok := m.names[name]; ok {
			f.slots[s] = slot{v: v, def: true}
		}
	}
	return f
}

// eval evaluates se in f.
func (se scalarExpr) eval(f *frame) (v float64, err error) {
	defer catch(&err)
	return se.x.eval(f), nil
}

// bind evaluates se in f and, when that succeeds, binds its target.
func (se scalarExpr) bind(f *frame) {
	if v, err := se.eval(f); err == nil {
		f.slots[se.target] = slot{v: v, def: true}
	}
}

// program is a kernel compiled for execution.
type program struct {
	slots  int          // frame size
	consts []constValue // literal slots
	params []int        // slot of each parameter
	body   []stmtFn
}

// constValue is a literal, held in a frame slot of its own so a leaf
// read is the same slot load for literals and variables.
type constValue struct {
	slot int
	v    float64
}

// newFrame returns a fresh frame of n slots with the literals in place.
func newFrame(n int, consts []constValue) *frame {
	f := &frame{slots: make([]slot, n)}
	for _, c := range consts {
		f.slots[c.slot].v = c.v
	}
	return f
}

// slot is the run-time state of one name.
type slot struct {
	v   float64   // scalar value, valid when def
	def bool      // a scalar value has been assigned
	buf []float64 // bound buffer, nil when the name has none
}

// frame is the state of one Run.
type frame struct {
	slots []slot
	st    RunStats
}

type (
	exprFn func(*frame) float64
	stmtFn func(*frame)
)

// fault carries a kernel run-time error from the closure that raised
// it to catch.
type fault struct{ err error }

func raise(err error) { panic(fault{err}) }

// catch, deferred, turns a fault into the function's error and lets
// any other panic continue.
func catch(err *error) {
	if r := recover(); r != nil {
		ft, ok := r.(fault)
		if !ok {
			panic(r)
		}
		*err = ft.err
	}
}

func runBlock(f *frame, b []stmtFn) {
	for _, s := range b {
		s(f)
	}
}

// count records one arithmetic or comparison op: a flop unless both
// operands are integral.
func (f *frame) count(a, b float64) {
	f.st.Ops++
	if a != math.Trunc(a) || b != math.Trunc(b) {
		f.st.Flops++
	}
}

// operand is a compiled expression. Literals and definitely assigned
// scalars are leaves, slot loads the parent does inline; anything else
// is a closure call.
type operand struct {
	fn   exprFn // nil for a leaf
	slot int    // the leaf's slot
}

func (o *operand) eval(f *frame) float64 {
	if o.fn != nil {
		return o.fn(f)
	}
	return f.slots[o.slot].v
}

var (
	errDivZero = errors.New("hls: division by zero")
	errModZero = errors.New("hls: modulo by zero")
)

// compiler resolves names to slots and tracks which scalars are
// definitely assigned at the point being compiled, so reads of those
// skip the "assigned yet" check.
type compiler struct {
	slots  int // allocated so far
	names  map[string]int
	consts []constValue
	def    []bool // by slot; missing entries are false
}

func newCompiler() *compiler { return &compiler{names: map[string]int{}} }

func (c *compiler) slot(name string) int {
	s, ok := c.names[name]
	if !ok {
		s = c.slots
		c.slots++
		c.names[name] = s
	}
	return s
}

func (c *compiler) constant(v float64) operand {
	for _, k := range c.consts {
		if math.Float64bits(k.v) == math.Float64bits(v) {
			return operand{slot: k.slot}
		}
	}
	c.consts = append(c.consts, constValue{slot: c.slots, v: v})
	c.slots++
	return operand{slot: c.slots - 1}
}

func (c *compiler) define(s int) {
	for len(c.def) <= s {
		c.def = append(c.def, false)
	}
	c.def[s] = true
}

func (c *compiler) defined(s int) bool { return s < len(c.def) && c.def[s] }

// snapshot copies the definite-assignment state.
func (c *compiler) snapshot() []bool { return append([]bool(nil), c.def...) }

// meet keeps the scalars assigned on both of two paths.
func meet(a, b []bool) []bool {
	out := make([]bool, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] && b[i]
	}
	return out
}

func (c *compiler) block(stmts []Stmt) []stmtFn {
	out := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *compiler) stmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case *Assign:
		return c.assign(st)
	case *For:
		return c.forStmt(st)
	case *If:
		cond := c.operand(st.Cond)
		in := c.snapshot()
		then := c.block(st.Then)
		afterThen := c.snapshot()
		c.def = in
		els := c.block(st.Else)
		c.def = meet(afterThen, c.def)
		return func(f *frame) {
			if cond.eval(f) != 0 {
				runBlock(f, then)
			} else {
				runBlock(f, els)
			}
		}
	case *LocalDecl:
		s, name, size := c.slot(st.Name), st.Name, st.Size
		return func(f *frame) {
			sl := &f.slots[s]
			if sl.buf != nil {
				raise(fmt.Errorf("hls: local array %q shadows a buffer", name))
			}
			if sl.def {
				raise(fmt.Errorf("hls: local array %q shadows a scalar", name))
			}
			sl.buf = make([]float64, size)
		}
	default:
		return func(*frame) { raise(fmt.Errorf("hls: unknown statement %T", s)) }
	}
}

func (c *compiler) assign(st *Assign) stmtFn {
	val := c.operand(st.Value)
	trunc := st.DeclType != nil && *st.DeclType == Int
	s := c.slot(st.Target)
	if st.Index == nil {
		c.define(s)
		if trunc {
			return func(f *frame) {
				v := math.Trunc(val.eval(f))
				sl := &f.slots[s]
				sl.v, sl.def = v, true
			}
		}
		return func(f *frame) {
			v := val.eval(f)
			sl := &f.slots[s]
			sl.v, sl.def = v, true
		}
	}
	idx, name := c.operand(st.Index), st.Target
	return func(f *frame) {
		v := val.eval(f)
		if trunc {
			v = math.Trunc(v)
		}
		b, i := index(f, s, &idx, name)
		b[i] = v
		f.st.Stores++
	}
}

func (c *compiler) forStmt(st *For) stmtFn {
	init := c.assign(st.Init)
	afterInit := c.snapshot()
	cond := c.operand(st.Cond)
	body := c.block(st.Body)
	post := c.assign(st.Post)
	// The body may run zero times.
	c.def = afterInit
	return func(f *frame) {
		init(f)
		limit := maxIterations
		for iter := 0; ; iter++ {
			if iter >= limit {
				raise(fmt.Errorf("hls: loop exceeded %d iterations", limit))
			}
			if cond.eval(f) == 0 {
				return
			}
			runBlock(f, body)
			post(f)
		}
	}
}

// index resolves buffer slot s and evaluates idx into a checked element
// position: the buffer must exist before the index is evaluated.
func index(f *frame, s int, idx *operand, name string) ([]float64, int) {
	b := f.slots[s].buf
	if b == nil {
		notBuffer(name)
	}
	i := int(idx.eval(f))
	if i < 0 || i >= len(b) {
		outOfRange(i, name, len(b))
	}
	return b, i
}

func notBuffer(name string) { raise(fmt.Errorf("hls: %q is not a buffer", name)) }

func outOfRange(i int, name string, n int) {
	raise(fmt.Errorf("hls: index %d out of range for buffer %q (len %d)", i, name, n))
}

func boolTo(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// operand compiles an expression, folding literals and definitely
// assigned scalars into leaves.
func (c *compiler) operand(x Expr) operand {
	switch ex := x.(type) {
	case *Num:
		return c.constant(ex.Value)
	case *Var:
		s := c.slot(ex.Name)
		if c.defined(s) {
			return operand{slot: s}
		}
		name := ex.Name
		return operand{fn: func(f *frame) float64 {
			sl := &f.slots[s]
			if !sl.def {
				if sl.buf != nil {
					raise(fmt.Errorf("hls: buffer %q used as scalar", name))
				}
				raise(fmt.Errorf("hls: undefined variable %q", name))
			}
			return sl.v
		}}
	case *Index:
		s, idx, name := c.slot(ex.Name), c.operand(ex.Idx), ex.Name
		return operand{fn: func(f *frame) float64 {
			b, i := index(f, s, &idx, name)
			f.st.Loads++
			return b[i]
		}}
	case *Unary:
		v := c.operand(ex.X)
		if ex.Op == "!" {
			return operand{fn: func(f *frame) float64 {
				x := v.eval(f)
				f.st.Ops++
				return boolTo(x == 0)
			}}
		}
		return operand{fn: func(f *frame) float64 {
			x := v.eval(f)
			f.st.Ops++
			return -x
		}}
	case *Binary:
		return operand{fn: c.binary(ex)}
	case *Call:
		return operand{fn: c.call(ex)}
	default:
		return operand{fn: func(*frame) float64 {
			raise(fmt.Errorf("hls: unknown expression %T", x))
			return 0
		}}
	}
}

func (c *compiler) binary(ex *Binary) exprFn {
	l, r := c.operand(ex.L), c.operand(ex.R)
	switch ex.Op {
	case "&&", "||":
		// Short-circuit: the op counts once, the right side runs only
		// when the left does not decide.
		decided := 0.0
		if ex.Op == "||" {
			decided = 1
		}
		return func(f *frame) float64 {
			a := l.eval(f)
			f.st.Ops++
			if boolTo(a != 0) == decided {
				return decided
			}
			return boolTo(r.eval(f) != 0)
		}
	case "+":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return a + b
		}
	case "-":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return a - b
		}
	case "*":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return a * b
		}
	case "/":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			if b == 0 {
				raise(errDivZero)
			}
			return a / b
		}
	case "%":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			bi := int64(b)
			if bi == 0 {
				raise(errModZero)
			}
			return float64(int64(a) % bi)
		}
	case "<":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return boolTo(a < b)
		}
	case "<=":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return boolTo(a <= b)
		}
	case ">":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return boolTo(a > b)
		}
	case ">=":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return boolTo(a >= b)
		}
	case "==":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return boolTo(a == b)
		}
	case "!=":
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.count(a, b)
			return boolTo(a != b)
		}
	default:
		op := ex.Op
		return func(f *frame) float64 {
			l.eval(f)
			r.eval(f)
			raise(fmt.Errorf("hls: unknown operator %q", op))
			return 0
		}
	}
}

// call compiles a builtin. Every call counts as one op and one flop.
func (c *compiler) call(ex *Call) exprFn {
	args := make([]operand, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = c.operand(a)
	}
	name := ex.Name
	if argc, ok := builtins[name]; !ok || argc != len(args) {
		return func(f *frame) float64 {
			for i := range args {
				args[i].eval(f)
			}
			if !ok {
				raise(fmt.Errorf("hls: unknown builtin %q", name))
			}
			raise(fmt.Errorf("hls: %s takes %d argument(s), got %d", name, argc, len(args)))
			return 0
		}
	}
	if len(args) == 2 {
		l, r := args[0], args[1]
		pick := math.Min
		if name == "max" {
			pick = math.Max
		}
		return func(f *frame) float64 {
			a, b := l.eval(f), r.eval(f)
			f.st.Ops++
			f.st.Flops++
			return pick(a, b)
		}
	}
	x := args[0]
	fn := map[string]func(float64) float64{
		"exp": math.Exp, "abs": math.Abs, "floor": math.Floor,
		"sqrt": func(v float64) float64 {
			if v < 0 {
				raise(fmt.Errorf("hls: sqrt of negative %v", v))
			}
			return math.Sqrt(v)
		},
		"log": func(v float64) float64 {
			if v <= 0 {
				raise(fmt.Errorf("hls: log of non-positive %v", v))
			}
			return math.Log(v)
		},
	}[name]
	return func(f *frame) float64 {
		v := x.eval(f)
		f.st.Ops++
		f.st.Flops++
		return fn(v)
	}
}
