package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// The reference evaluator: the tree walker that ran every script before
// programs were lowered to closures (lower.go), kept here as moved so the
// differential tests (TestLoweredMatchesReference, FuzzScript) can hold the
// lowered code to it — same value or same *Error class, function, line and
// message, and the same step total, for every program, argument list and
// budget. Only its entry point changed: refCall reports the steps charged
// and leaves the package counters, which describe production invocations,
// alone. No non-test code can reach this file.
//
// The evaluator is a tree walker with two meters. Every statement executed
// and every expression node evaluated charges one step, and
// data-proportional work (string comparison, find) charges a step per byte
// touched; every string byte a program produces charges the allocation
// budget. Exceeding either budget aborts the invocation with a typed,
// permanent *Error.

// refCall evaluates fn the way Program.Call did before lowering, and also
// returns the steps the evaluation charged.
func (p *Program) refCall(fn string, lim Limits, host map[string]Builtin, args ...Value) (ret Value, steps int64, err error) {
	ev := &evalState{fn: fn, host: host, lim: lim.withDefaults()}
	defer func() {
		if r := recover(); r != nil {
			ret, steps = Value{}, ev.steps
			err = &Error{Class: ClassRuntime, Fn: fn, Line: 1,
				Msg: fmt.Sprintf("internal panic: %v", r)}
		}
	}()
	d, ok := p.fns[fn]
	if !ok {
		return Value{}, 0, &Error{Class: ClassRuntime, Fn: fn, Line: 1, Msg: "no such function"}
	}
	if len(args) != len(d.params) {
		return Value{}, 0, &Error{Class: ClassRuntime, Fn: fn, Line: d.line,
			Msg: fmt.Sprintf("%s takes %d arguments, got %d", fn, len(d.params), len(args))}
	}
	ev.vars = make(map[string]Value, len(d.params)+4)
	for i, name := range d.params {
		ev.vars[name] = args[i]
	}
	out, _, eerr := ev.execBlock(d.body)
	if eerr != nil {
		return Value{}, ev.steps, eerr
	}
	return out, ev.steps, nil
}

type evalState struct {
	fn    string
	host  map[string]Builtin
	lim   Limits
	vars  map[string]Value
	steps int64
	alloc int64
}

func (ev *evalState) errf(line int, format string, args ...any) *Error {
	return &Error{Class: ClassRuntime, Fn: ev.fn, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// step charges one evaluation step.
func (ev *evalState) step(line int) *Error { return ev.stepN(1, line) }

// stepN charges n evaluation steps at once. Data-proportional work —
// bytewise string comparison, substring search — charges one step per byte
// touched, so the step budget bounds CPU time, not just node count.
func (ev *evalState) stepN(n int64, line int) *Error {
	ev.steps += n
	if ev.steps > ev.lim.Steps {
		return &Error{Class: ClassStepBudget, Fn: ev.fn, Line: line,
			Msg: fmt.Sprintf("step budget of %d exhausted", ev.lim.Steps)}
	}
	return nil
}

// charge meters n bytes of produced string.
func (ev *evalState) charge(n int, line int) *Error {
	ev.alloc += int64(n)
	if ev.alloc > ev.lim.AllocBytes {
		return &Error{Class: ClassAllocBudget, Fn: ev.fn, Line: line,
			Msg: fmt.Sprintf("allocation budget of %d bytes exhausted", ev.lim.AllocBytes)}
	}
	return nil
}

// execBlock runs stmts; returned=true means a return statement fired and
// ret carries its value.
func (ev *evalState) execBlock(stmts []stmt) (ret Value, returned bool, err *Error) {
	for _, s := range stmts {
		if err := ev.step(s.stmtLine()); err != nil {
			return Value{}, false, err
		}
		switch s := s.(type) {
		case *letStmt:
			v, err := ev.eval(s.x)
			if err != nil {
				return Value{}, false, err
			}
			ev.vars[s.name] = v
		case *assignStmt:
			if _, ok := ev.vars[s.name]; !ok {
				return Value{}, false, ev.errf(s.line, "assignment to undeclared variable %s (use let)", s.name)
			}
			v, err := ev.eval(s.x)
			if err != nil {
				return Value{}, false, err
			}
			ev.vars[s.name] = v
		case *ifStmt:
			cond, err := ev.evalBool(s.cond)
			if err != nil {
				return Value{}, false, err
			}
			body := s.then
			if !cond {
				body = s.els
			}
			if ret, returned, err := ev.execBlock(body); err != nil || returned {
				return ret, returned, err
			}
		case *whileStmt:
			for {
				if err := ev.step(s.line); err != nil {
					return Value{}, false, err
				}
				cond, err := ev.evalBool(s.cond)
				if err != nil {
					return Value{}, false, err
				}
				if !cond {
					break
				}
				if ret, returned, err := ev.execBlock(s.body); err != nil || returned {
					return ret, returned, err
				}
			}
		case *returnStmt:
			if s.x == nil {
				return Value{}, true, nil
			}
			v, err := ev.eval(s.x)
			if err != nil {
				return Value{}, false, err
			}
			return v, true, nil
		case *exprStmt:
			if _, err := ev.eval(s.x); err != nil {
				return Value{}, false, err
			}
		}
	}
	return Value{}, false, nil
}

func (ev *evalState) evalBool(e expr) (bool, *Error) {
	v, err := ev.eval(e)
	if err != nil {
		return false, err
	}
	if v.kind != kindBool {
		return false, ev.errf(e.exprLine(), "condition is %s, want bool", v.kind)
	}
	return v.b, nil
}

func (ev *evalState) eval(e expr) (Value, *Error) {
	if err := ev.step(e.exprLine()); err != nil {
		return Value{}, err
	}
	switch e := e.(type) {
	case *intLit:
		return Int(e.v), nil
	case *strLit:
		return Str(e.v), nil
	case *boolLit:
		return Bool(e.v), nil
	case *varRef:
		v, ok := ev.vars[e.name]
		if !ok {
			return Value{}, ev.errf(e.line, "undefined variable %s", e.name)
		}
		return v, nil
	case *callExpr:
		return ev.evalCall(e)
	case *unaryExpr:
		x, err := ev.eval(e.x)
		if err != nil {
			return Value{}, err
		}
		switch e.op {
		case "!":
			if x.kind != kindBool {
				return Value{}, ev.errf(e.line, "operator ! on %s, want bool", x.kind)
			}
			return Bool(!x.b), nil
		default: // "-"
			if x.kind != kindInt {
				return Value{}, ev.errf(e.line, "operator - on %s, want int", x.kind)
			}
			if x.i == math.MinInt64 {
				return Value{}, ev.errf(e.line, "integer overflow negating %d", x.i)
			}
			return Int(-x.i), nil
		}
	case *binExpr:
		return ev.evalBin(e)
	}
	return Value{}, ev.errf(e.exprLine(), "unevaluable expression")
}

func (ev *evalState) evalBin(e *binExpr) (Value, *Error) {
	// && and || short-circuit; everything else is strict.
	if e.op == "&&" || e.op == "||" {
		x, err := ev.evalBool(e.x)
		if err != nil {
			return Value{}, err
		}
		if e.op == "&&" && !x || e.op == "||" && x {
			return Bool(x), nil
		}
		y, err := ev.evalBool(e.y)
		if err != nil {
			return Value{}, err
		}
		return Bool(y), nil
	}
	x, err := ev.eval(e.x)
	if err != nil {
		return Value{}, err
	}
	y, err := ev.eval(e.y)
	if err != nil {
		return Value{}, err
	}
	if x.kind != y.kind {
		return Value{}, ev.errf(e.line, "operator %s on mixed %s and %s", e.op, x.kind, y.kind)
	}
	switch x.kind {
	case kindInt:
		return ev.evalIntOp(e, x.i, y.i)
	case kindStr:
		return ev.evalStrOp(e, x.s, y.s)
	default:
		switch e.op {
		case "==":
			return Bool(x.b == y.b), nil
		case "!=":
			return Bool(x.b != y.b), nil
		}
		return Value{}, ev.errf(e.line, "operator %s on bool", e.op)
	}
}

func (ev *evalState) evalIntOp(e *binExpr, x, y int64) (Value, *Error) {
	switch e.op {
	case "+":
		return Int(x + y), nil
	case "-":
		return Int(x - y), nil
	case "*":
		return Int(x * y), nil
	case "/", "%":
		if y == 0 {
			return Value{}, ev.errf(e.line, "division by zero")
		}
		if x == math.MinInt64 && y == -1 {
			return Value{}, ev.errf(e.line, "integer overflow dividing %d by -1", x)
		}
		if e.op == "/" {
			return Int(x / y), nil
		}
		return Int(x % y), nil
	case "==":
		return Bool(x == y), nil
	case "!=":
		return Bool(x != y), nil
	case "<":
		return Bool(x < y), nil
	case "<=":
		return Bool(x <= y), nil
	case ">":
		return Bool(x > y), nil
	case ">=":
		return Bool(x >= y), nil
	}
	return Value{}, ev.errf(e.line, "unknown operator %s", e.op)
}

// evalStrOp: + concatenates (charged against the alloc budget); comparisons
// are bytewise — which on keycodec-encoded keys is exactly key order — and
// charge the step budget per byte of the shorter operand, so a loop
// comparing a large payload burns its budget instead of a worker's CPU.
func (ev *evalState) evalStrOp(e *binExpr, x, y string) (Value, *Error) {
	if e.op == "+" {
		if err := ev.charge(len(x)+len(y), e.line); err != nil {
			return Value{}, err
		}
		return Str(x + y), nil
	}
	if err := ev.stepN(int64(min(len(x), len(y))), e.line); err != nil {
		return Value{}, err
	}
	switch e.op {
	case "==":
		return Bool(x == y), nil
	case "!=":
		return Bool(x != y), nil
	case "<":
		return Bool(x < y), nil
	case "<=":
		return Bool(x <= y), nil
	case ">":
		return Bool(x > y), nil
	case ">=":
		return Bool(x >= y), nil
	}
	return Value{}, ev.errf(e.line, "operator %s on string", e.op)
}

func (ev *evalState) evalCall(e *callExpr) (Value, *Error) {
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		v, err := ev.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	if v, handled, err := ev.pureBuiltin(e, args); handled {
		return v, err
	}
	if fn, ok := ev.host[e.fn]; ok {
		v, err := fn(args)
		if err != nil {
			if serr, ok := err.(*Error); ok {
				return Value{}, serr
			}
			return Value{}, ev.errf(e.line, "%s: %v", e.fn, err)
		}
		return v, nil
	}
	return Value{}, ev.errf(e.line, "unknown function %s", e.fn)
}

// pureBuiltin serves the context-independent builtins. handled=false means
// the name is not a pure builtin and host lookup should proceed.
func (ev *evalState) pureBuiltin(e *callExpr, args []Value) (v Value, handled bool, err *Error) {
	argErr := func(want string) *Error {
		return ev.errf(e.line, "%s takes %s", e.fn, want)
	}
	oneStr := func() (string, *Error) {
		if len(args) != 1 || args[0].kind != kindStr {
			return "", argErr("one string")
		}
		return args[0].s, nil
	}
	switch e.fn {
	case "len":
		s, err := oneStr()
		if err != nil {
			return Value{}, true, err
		}
		return Int(int64(len(s))), true, nil
	case "substr":
		// substr(s, i, j) is s[i:j] with the bounds clamped into range, so
		// substr is total: no index can fault a script.
		if len(args) != 3 || args[0].kind != kindStr || args[1].kind != kindInt || args[2].kind != kindInt {
			return Value{}, true, argErr("a string and two ints")
		}
		s := args[0].s
		i, j := args[1].i, args[2].i
		if i < 0 {
			i = 0
		}
		if j < 0 {
			j = 0
		}
		if j > int64(len(s)) {
			j = int64(len(s))
		}
		if i > j {
			i = j
		}
		out := s[i:j]
		if err := ev.charge(len(out), e.line); err != nil {
			return Value{}, true, err
		}
		return Str(out), true, nil
	case "find":
		// Substring search scans the haystack; charge it like a comparison
		// so find in a loop cannot outrun the step budget.
		if len(args) != 2 || args[0].kind != kindStr || args[1].kind != kindStr {
			return Value{}, true, argErr("two strings")
		}
		if err := ev.stepN(int64(len(args[0].s)), e.line); err != nil {
			return Value{}, true, err
		}
		return Int(int64(strings.Index(args[0].s, args[1].s))), true, nil
	case "int":
		s, err := oneStr()
		if err != nil {
			return Value{}, true, err
		}
		n, perr := strconv.ParseInt(s, 10, 64)
		if perr != nil {
			return Value{}, true, ev.errf(e.line, "int(%q): not an integer", s)
		}
		return Int(n), true, nil
	case "str":
		if len(args) != 1 {
			return Value{}, true, argErr("one value")
		}
		out := args[0].Text()
		if err := ev.charge(len(out), e.line); err != nil {
			return Value{}, true, err
		}
		return Str(out), true, nil
	case "keyint":
		// keyint(n) is the order-preserving key encoding of an int — the
		// script-side keycodec.Int64.
		if len(args) != 1 || args[0].kind != kindInt {
			return Value{}, true, argErr("one int")
		}
		out := keycodec.Int64(args[0].i)
		if err := ev.charge(len(out), e.line); err != nil {
			return Value{}, true, err
		}
		return Str(out), true, nil
	case "keystr":
		s, err := oneStr()
		if err != nil {
			return Value{}, true, err
		}
		out := keycodec.String(s)
		if err := ev.charge(len(out), e.line); err != nil {
			return Value{}, true, err
		}
		return Str(out), true, nil
	case "indexpart", "indexkey":
		// Decode a structure's index entry payload into the indexed record's
		// partition key / primary key — the script-side EntryRef.
		s, err := oneStr()
		if err != nil {
			return Value{}, true, err
		}
		partKey, pk, derr := lake.DecodeIndexEntry([]byte(s))
		if derr != nil {
			return Value{}, true, ev.errf(e.line, "%s: %v", e.fn, derr)
		}
		out := string(partKey)
		if e.fn == "indexkey" {
			out = string(pk)
		}
		if err := ev.charge(len(out), e.line); err != nil {
			return Value{}, true, err
		}
		return Str(out), true, nil
	}
	return Value{}, false, nil
}
