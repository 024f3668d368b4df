package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// Lowering: Compile turns every checked function into flat Go closures once,
// so an invocation walks no AST, hashes no names and allocates no
// environment. Decided at lowering time: each parameter and let name is a
// frame slot; operators and pure builtins are bound to the code that
// implements them; each host builtin a function calls is an index into a
// small per-function table; each call's arguments are a fixed window of the
// frame. Left to the call: the values, their dynamic kinds, whether a let
// has executed yet (a defined bit per slot), and which host builtins the
// contract being served installs.
//
// Two meters run exactly as the tree-walking reference evaluator (kept in
// this package's tests) runs them: every statement executed and expression
// node evaluated charges one step, each loop iteration one more, and string
// comparison and find a step per byte touched; every string byte produced
// charges the allocation budget. Same charges, same points, same order — so
// under any budget both stop at the same node with the same typed, permanent
// *Error, and the worst a hostile script costs is its budget.
//
// Inside lowered code a fault — runtime error or budget trip — is a panic
// carrying the *Error, recovered in invoke, the one way in: the closures
// return bare values and the no-fault path tests nothing.

// Builtin is one host-provided function, installed per invocation for the
// contract being served. Argument validation is the builtin's job; a plain
// error return is wrapped into a *Error at the call site. args is a window
// of the invocation's frame, valid only until the builtin returns.
type Builtin func(args []Value) (Value, error)

// hostFn is a contract builtin the adapters install: a static function over
// the invocation's frame, which owns whatever the builtin accumulates. line
// attributes a budget trip to the call site.
type hostFn func(fr *frame, line int, args []Value) error

type (
	evalFn func(fr *frame) Value
	stmtFn func(fr *frame) (returned bool) // true: a return stored fr.ret
)

// loweredFn is one function ready to run, immutable but for its two totals.
type loweredFn struct {
	name    string
	line    int
	nparams int
	reads   []bool // reads[i]: some expression reads parameter i
	nlocals int    // parameters first, then let names by first mention
	nargs   int    // deepest stack of call argument windows
	body    []stmtFn
	// hostNames lists the non-pure builtins the body calls; a call site holds
	// its index here, resolved against a contract when an adapter is built.
	hostNames []string

	calls, steps atomic.Int64
}

// frame is the state of one invocation. Frames are pooled: nothing in one
// outlives its invocation except what the adapter takes out of it.
type frame struct {
	fn                 *loweredFn
	maxSteps, maxAlloc int64
	steps, alloc       int64

	locals []Value // the function's slots, then its call argument windows
	set    []bool  // set[i]: local i has been assigned (parameters always are)
	args   []Value // the windows: locals[nlocals:]
	ret    Value

	// host holds the contract's builtins by hostNames index when an adapter
	// runs the function; dyn the caller's by name under Program.Call.
	host []hostFn
	dyn  map[string]Builtin

	// What the contract builtins accumulate (hostapi.go), and the arena the
	// values the call makes are cut from: the task's under an adapter that
	// has one, nil (each value its own allocation) otherwise.
	arena         *lake.Arena
	rec           lake.Record
	out           []lake.Pointer
	carry         []byte
	names, values []string

	// The index entry indexpart and indexkey last decoded, and its keys: a
	// record's entry is decoded once however many of its keys are read.
	entry               string
	entryPart, entryKey lake.Key
	entryDecoded        bool
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// newFrame returns a zeroed frame sized for lf under lim (defaults applied).
func (lf *loweredFn) newFrame(lim Limits) *frame {
	fr := framePool.Get().(*frame)
	fr.fn, fr.maxSteps, fr.maxAlloc = lf, lim.Steps, lim.AllocBytes
	if n := lf.nlocals + lf.nargs; cap(fr.locals) < n {
		fr.locals, fr.set = make([]Value, n), make([]bool, n)
	} else {
		fr.locals, fr.set = fr.locals[:n], fr.set[:n]
	}
	fr.args = fr.locals[lf.nlocals:]
	return fr
}

// release zeroes the frame — dropping every string and slice it references —
// and returns it to the pool.
func (fr *frame) release() {
	clear(fr.locals)
	clear(fr.set)
	*fr = frame{locals: fr.locals, set: fr.set}
	framePool.Put(fr)
}

// Call evaluates fn with the given sandbox limits, host builtins, and
// arguments, returning the function's return value (the zero Value for a
// bare or missing return). Programs are immutable, so concurrent Calls on
// one Program are safe; each call meters itself independently. Call borrows
// nothing and has no arena: a string it returns is one of the caller's, or
// part of one, or memory of its own.
func (p *Program) Call(fn string, lim Limits, host map[string]Builtin, args ...Value) (Value, error) {
	d, ok := p.fns[fn]
	if !ok {
		return Value{}, &Error{Class: ClassRuntime, Fn: fn, Line: 1, Msg: "no such function"}
	}
	lf := d.low
	if len(args) != lf.nparams {
		return Value{}, &Error{Class: ClassRuntime, Fn: fn, Line: lf.line,
			Msg: fmt.Sprintf("%s takes %d arguments, got %d", fn, lf.nparams, len(args))}
	}
	fr := lf.newFrame(lim.withDefaults())
	defer fr.release()
	fr.dyn = host
	copy(fr.locals, args)
	return lf.invoke(fr)
}

// invoke runs the function on a prepared frame and accounts for it: one
// invocation and the frame's step total, whatever the outcome.
func (lf *loweredFn) invoke(fr *frame) (ret Value, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *Error:
			ret, err = Value{}, r
		default:
			// Last line of the sandbox: any other panic — a lowering bug, a
			// faulting host builtin — would crash the serving process from a
			// user-POSTed script; it becomes a permanent runtime *Error.
			ret, err = Value{}, &Error{Class: ClassRuntime, Fn: lf.name, Line: 1,
				Msg: fmt.Sprintf("internal panic: %v", r)}
		}
		counters.invocations.Add(1)
		counters.steps.Add(fr.steps)
		lf.calls.Add(1)
		lf.steps.Add(fr.steps)
	}()
	fr.run(lf.body)
	return fr.ret, nil
}

// fail aborts the invocation with a runtime error.
func (fr *frame) fail(line int, format string, args ...any) {
	panic(&Error{Class: ClassRuntime, Fn: fr.fn.name, Line: line, Msg: fmt.Sprintf(format, args...)})
}

// step charges n evaluation steps: one per node, and for data-proportional
// work — bytewise string comparison, substring search — one per byte
// touched, so the step budget bounds CPU time, not just node count.
func (fr *frame) step(n int64, line int) {
	fr.steps += n
	if fr.steps > fr.maxSteps {
		fr.trip(&counters.stepTrips, ClassStepBudget, line, "step budget of %d exhausted", fr.maxSteps)
	}
}

// charge meters n bytes of produced string or, from the adapters, of
// emitted output.
func (fr *frame) charge(n int, line int) {
	fr.alloc += int64(n)
	if fr.alloc > fr.maxAlloc {
		fr.trip(&counters.allocTrips, ClassAllocBudget, line, "allocation budget of %d bytes exhausted", fr.maxAlloc)
	}
}

func (fr *frame) trip(trips *atomic.Int64, class Class, line int, format string, budget int64) {
	trips.Add(1)
	panic(&Error{Class: class, Fn: fr.fn.name, Line: line, Msg: fmt.Sprintf(format, budget)})
}

func (fr *frame) run(block []stmtFn) bool {
	for _, s := range block {
		if s(fr) {
			return true
		}
	}
	return false
}

// cond evaluates a condition, which must be a bool.
func (fr *frame) cond(x evalFn, line int) bool {
	v := x(fr)
	if v.kind != kindBool {
		fr.fail(line, "condition is %s, want bool", v.kind)
	}
	return v.b
}

// lowerer lowers one function.
type lowerer struct {
	fn     *loweredFn
	slots  map[string]int
	argTop int // argument windows of the calls enclosing the current node
}

func lowerFn(d *fnDecl) *loweredFn {
	lf := &loweredFn{name: d.name, line: d.line, nparams: len(d.params), reads: make([]bool, len(d.params))}
	lw := &lowerer{fn: lf, slots: map[string]int{}}
	for _, name := range d.params {
		lw.slot(name)
	}
	lf.body = lw.block(d.body)
	lf.nlocals = len(lw.slots)
	return lf
}

// slot returns name's frame slot, assigning the next one on first mention —
// let, read or assignment alike: which of them runs first is only known at
// run time, and the defined bit settles it.
func (lw *lowerer) slot(name string) int {
	s, ok := lw.slots[name]
	if !ok {
		s = len(lw.slots)
		lw.slots[name] = s
	}
	return s
}

func (lw *lowerer) block(stmts []stmt) []stmtFn {
	out := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		out[i] = lw.stmt(s)
	}
	return out
}

func (lw *lowerer) stmt(s stmt) stmtFn {
	line := s.stmtLine()
	switch s := s.(type) {
	case *letStmt:
		return lw.store(s.name, s.x, line, false)
	case *assignStmt:
		return lw.store(s.name, s.x, line, true)
	case *ifStmt:
		condLine, cond, then, els := s.cond.exprLine(), lw.expr(s.cond), lw.block(s.then), lw.block(s.els)
		return func(fr *frame) bool {
			fr.step(1, line)
			if fr.cond(cond, condLine) {
				return fr.run(then)
			}
			return fr.run(els)
		}
	case *whileStmt:
		condLine, cond, body := s.cond.exprLine(), lw.expr(s.cond), lw.block(s.body)
		return func(fr *frame) bool {
			fr.step(1, line)
			for {
				fr.step(1, line)
				if !fr.cond(cond, condLine) {
					return false
				}
				if fr.run(body) {
					return true
				}
			}
		}
	case *returnStmt:
		var x evalFn // nil for a bare return
		if s.x != nil {
			x = lw.expr(s.x)
		}
		return func(fr *frame) bool {
			fr.step(1, line)
			if x != nil {
				fr.ret = x(fr)
			}
			return true
		}
	case *exprStmt:
		x := lw.expr(s.x)
		return func(fr *frame) bool {
			fr.step(1, line)
			x(fr)
			return false
		}
	}
	panic(fmt.Sprintf("script: unlowerable statement %T", s))
}

// store lowers let (declare or redeclare) and assignment (which faults,
// before evaluating its right-hand side, unless the name has been declared).
func (lw *lowerer) store(name string, rhs expr, line int, mustExist bool) stmtFn {
	slot, x := lw.slot(name), lw.expr(rhs)
	mustExist = mustExist && slot >= lw.fn.nparams
	return func(fr *frame) bool {
		fr.step(1, line)
		if mustExist && !fr.set[slot] {
			fr.fail(line, "assignment to undeclared variable %s (use let)", name)
		}
		fr.locals[slot], fr.set[slot] = x(fr), true
		return false
	}
}

func (lw *lowerer) expr(e expr) evalFn {
	line := e.exprLine()
	switch e := e.(type) {
	case *intLit:
		return constant(Int(e.v), line)
	case *strLit:
		return constant(Str(e.v), line)
	case *boolLit:
		return constant(Bool(e.v), line)
	case *varRef:
		name, slot := e.name, lw.slot(e.name)
		if slot < lw.fn.nparams {
			lw.fn.reads[slot] = true
			return func(fr *frame) Value { fr.step(1, line); return fr.locals[slot] }
		}
		return func(fr *frame) Value {
			fr.step(1, line)
			if !fr.set[slot] {
				fr.fail(line, "undefined variable %s", name)
			}
			return fr.locals[slot]
		}
	case *unaryExpr:
		x, not := lw.expr(e.x), e.op == "!"
		return func(fr *frame) Value {
			fr.step(1, line)
			v := x(fr)
			switch {
			case not && v.kind == kindBool:
				return Bool(!v.b)
			case not:
				fr.fail(line, "operator ! on %s, want bool", v.kind)
			case v.kind != kindInt:
				fr.fail(line, "operator - on %s, want int", v.kind)
			case v.i == math.MinInt64:
				fr.fail(line, "integer overflow negating %d", v.i)
			}
			return Int(-v.i)
		}
	case *binExpr:
		x, y := lw.expr(e.x), lw.expr(e.y)
		if e.op != "&&" && e.op != "||" {
			return lowerBinary(e.op, line, x, y)
		}
		xLine, yLine, isAnd := e.x.exprLine(), e.y.exprLine(), e.op == "&&"
		return func(fr *frame) Value { // && and || short-circuit
			fr.step(1, line)
			if a := fr.cond(x, xLine); a != isAnd {
				return Bool(a)
			}
			return Bool(fr.cond(y, yLine))
		}
	case *callExpr:
		if _, pure := pureBuiltins[e.fn]; pure {
			return lw.pureCall(e)
		}
		return lw.hostCall(e)
	}
	panic(fmt.Sprintf("script: unlowerable expression %T", e))
}

func constant(v Value, line int) evalFn {
	return func(fr *frame) Value { fr.step(1, line); return v }
}

// The strict operators, bound when a binExpr is lowered. Division and
// remainder fault on a zero divisor and on the one overflowing quotient
// before intOps is consulted; strings compare as strings.Compare against 0.
var intOps = map[string]func(x, y int64) Value{
	"+":  func(x, y int64) Value { return Int(x + y) },
	"-":  func(x, y int64) Value { return Int(x - y) },
	"*":  func(x, y int64) Value { return Int(x * y) },
	"/":  func(x, y int64) Value { return Int(x / y) },
	"%":  func(x, y int64) Value { return Int(x % y) },
	"==": func(x, y int64) Value { return Bool(x == y) },
	"!=": func(x, y int64) Value { return Bool(x != y) },
	"<":  func(x, y int64) Value { return Bool(x < y) },
	"<=": func(x, y int64) Value { return Bool(x <= y) },
	">":  func(x, y int64) Value { return Bool(x > y) },
	">=": func(x, y int64) Value { return Bool(x >= y) },
}

// lowerBinary lowers the strict operators. On strings + concatenates
// (charged against the alloc budget) and comparisons are bytewise — which on
// keycodec-encoded keys is exactly key order — charging the step budget per
// byte of the shorter operand, so a loop comparing a large payload burns its
// budget instead of a worker's CPU.
func lowerBinary(op string, line int, x, y evalFn) evalFn {
	onInt, arith := intOps[op], strings.Contains("+-*/%", op)
	divides, concat, eq, ne := op == "/" || op == "%", op == "+", op == "==", op == "!="
	return func(fr *frame) Value {
		fr.step(1, line)
		a, b := x(fr), y(fr)
		switch {
		case a.kind != b.kind:
			fr.fail(line, "operator %s on mixed %s and %s", op, a.kind, b.kind)
		case a.kind == kindInt:
			if divides && b.i == 0 {
				fr.fail(line, "division by zero")
			}
			if divides && a.i == math.MinInt64 && b.i == -1 {
				fr.fail(line, "integer overflow dividing %d by -1", a.i)
			}
			return onInt(a.i, b.i)
		case a.kind == kindStr && concat:
			fr.charge(len(a.s)+len(b.s), line)
			return Str(a.s + b.s)
		case a.kind == kindStr:
			fr.step(int64(min(len(a.s), len(b.s))), line)
			if arith {
				fr.fail(line, "operator %s on string", op)
			}
			return onInt(int64(strings.Compare(a.s, b.s)), 0)
		case !eq && !ne:
			fr.fail(line, "operator %s on bool", op)
		}
		return Bool((a.b == b.b) == eq)
	}
}

// pureBuiltins are the context-independent builtins: the kinds of argument
// each takes (anyKind for any), the description its errors quote, and what
// it computes once they have been checked. A call to one of these names
// never reaches the host, so lowering binds it for good.
var pureBuiltins = map[string]struct {
	kinds []kind
	want  string
	apply func(fr *frame, line int, a []Value) Value
}{
	"len": {[]kind{kindStr}, "one string", func(_ *frame, _ int, a []Value) Value {
		return Int(int64(len(a[0].s)))
	}},
	// substr(s, i, j) is s[i:j] with the bounds clamped into range, so substr
	// is total: no index can fault a script.
	"substr": {[]kind{kindStr, kindInt, kindInt}, "a string and two ints", func(fr *frame, line int, a []Value) Value {
		s, i := a[0].s, max(a[1].i, 0)
		j := min(max(a[2].i, 0), int64(len(s)))
		return fr.produce(s[min(i, j):j], line)
	}},
	// Substring search scans the haystack; charge it like a comparison so
	// find in a loop cannot outrun the step budget.
	"find": {[]kind{kindStr, kindStr}, "two strings", func(fr *frame, line int, a []Value) Value {
		fr.step(int64(len(a[0].s)), line)
		return Int(int64(strings.Index(a[0].s, a[1].s)))
	}},
	"int": {[]kind{kindStr}, "one string", func(fr *frame, line int, a []Value) Value {
		n, err := strconv.ParseInt(a[0].s, 10, 64)
		if err != nil {
			fr.fail(line, "int(%q): not an integer", a[0].s)
		}
		return Int(n)
	}},
	"str": {[]kind{anyKind}, "one value", func(fr *frame, line int, a []Value) Value {
		return fr.produce(a[0].Text(), line)
	}},
	// keyint(n) is the order-preserving key encoding of an int — the
	// script-side keycodec.Int64.
	"keyint": {[]kind{kindInt}, "one int", func(fr *frame, line int, a []Value) Value {
		return fr.produce(fr.arena.CutKey(keycodec.AppendInt64(fr.arena.Tail(8), a[0].i)), line)
	}},
	"keystr": {[]kind{kindStr}, "one string", func(fr *frame, line int, a []Value) Value {
		s := a[0].s
		return fr.produce(fr.arena.CutKey(keycodec.AppendString(fr.arena.Tail(len(s)+2), s)), line)
	}},
	// indexpart and indexkey decode a structure's index entry payload into
	// the indexed record's partition key / primary key — the script-side
	// EntryRef. Both keys are cut from the frame's arena.
	"indexpart": {[]kind{kindStr}, "one string", func(fr *frame, line int, a []Value) Value {
		return fr.indexEntry("indexpart", line, a[0].s, false)
	}},
	"indexkey": {[]kind{kindStr}, "one string", func(fr *frame, line int, a []Value) Value {
		return fr.indexEntry("indexkey", line, a[0].s, true)
	}},
}

// anyKind marks a builtin parameter that takes a value of any kind.
const anyKind kind = -1

// produce charges a string a builtin made against the allocation budget.
func (fr *frame) produce(s string, line int) Value {
	fr.charge(len(s), line)
	return Str(s)
}

// indexEntry decodes payload — read in place, never copied — unless it is
// the entry the frame decoded last, and produces one of its keys.
func (fr *frame) indexEntry(fn string, line int, payload string, wantKey bool) Value {
	if !fr.entryDecoded || payload != fr.entry {
		partKey, pk, err := fr.arena.DecodeIndexEntry(unsafe.Slice(unsafe.StringData(payload), len(payload)))
		if err != nil {
			fr.fail(line, "%s: %v", fn, err)
		}
		fr.entry, fr.entryPart, fr.entryKey, fr.entryDecoded = payload, partKey, pk, true
	}
	if wantKey {
		return fr.produce(fr.entryKey, line)
	}
	return fr.produce(fr.entryPart, line)
}

// pureCall lowers a call to a pure builtin. A wrong argument count is
// visible now, but it is a run-time error like a wrong kind, raised after
// the arguments have been evaluated (and charged).
func (lw *lowerer) pureCall(e *callExpr) evalFn {
	name, line, pure := e.fn, e.line, pureBuiltins[e.fn]
	args, base := lw.window(e.args)
	arityOK := len(args) == len(pure.kinds)
	return func(fr *frame) Value {
		fr.step(1, line)
		a := fr.evalArgs(args, base)
		for i, k := range pure.kinds {
			if !arityOK || k != anyKind && a[i].kind != k {
				fr.fail(line, "%s takes %s", name, pure.want)
			}
		}
		return pure.apply(fr, line, a)
	}
}

// window lowers a call's arguments and reserves the window of the frame
// they are evaluated into: windows of calls nested in the arguments stack
// above it, so an outer call's earlier arguments survive an inner call.
func (lw *lowerer) window(es []expr) (args []evalFn, base int) {
	base = lw.argTop
	lw.argTop += len(es)
	lw.fn.nargs = max(lw.fn.nargs, lw.argTop)
	args = make([]evalFn, len(es))
	for i, e := range es {
		args[i] = lw.expr(e)
	}
	lw.argTop = base
	return args, base
}

func (fr *frame) evalArgs(args []evalFn, base int) []Value {
	window := fr.args[base : base+len(args) : base+len(args)]
	for i, x := range args {
		window[i] = x(fr)
	}
	return window
}

// hostCall lowers a call to anything that is not a pure builtin: whether
// the name exists depends on the contract the function is later run under.
func (lw *lowerer) hostCall(e *callExpr) evalFn {
	name, line := e.fn, e.line
	slot := 0
	for slot < len(lw.fn.hostNames) && lw.fn.hostNames[slot] != name {
		slot++
	}
	if slot == len(lw.fn.hostNames) {
		lw.fn.hostNames = append(lw.fn.hostNames, name)
	}
	args, base := lw.window(e.args)
	return func(fr *frame) Value {
		fr.step(1, line)
		window := fr.evalArgs(args, base)
		var v Value
		var err error
		if fr.host != nil {
			fn := fr.host[slot]
			if fn == nil {
				fr.fail(line, "unknown function %s", name)
			}
			err = fn(fr, line, window)
		} else {
			fn, ok := fr.dyn[name]
			if !ok {
				fr.fail(line, "unknown function %s", name)
			}
			v, err = fn(window)
		}
		if serr, ok := err.(*Error); ok {
			panic(serr)
		} else if err != nil {
			fr.fail(line, "%s: %v", name, err)
		}
		return v
	}
}
