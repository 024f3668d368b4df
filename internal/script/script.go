// Package script makes access methods first-class, post-hoc citizens of the
// lake: a small, sandboxed, in-tree interpreter for a deliberately minimal
// expression/statement language whose programs implement the
// core.Interpreter, core.Referencer, and core.Filter contracts (and the
// indexer.Spec extractor functions) against a typed record/key host API.
//
// The paper's premise (§II) is that structures and the functions that
// interpret them can be registered after data lands in the lake. Every other
// access method in this repo is compiled in; this package is the runtime
// path: a user POSTs source text, the registry compiles and validates it
// once, and from then on the program is invoked per record exactly like a
// compiled function — inside the SMPE executor, inside structure builds,
// and across restarts (the source persists in snapshot meta and is
// re-compiled on recovery).
//
// Sandboxing is non-negotiable and enforced here, not by callers:
//
//   - no IO, no imports, no host access beyond the builtins installed for
//     the specific contract being served;
//   - deterministic evaluation (integer arithmetic, strings, booleans; no
//     floats, no clocks, no randomness, no map iteration);
//   - per-invocation step and allocation budgets (Limits) so a runaway loop,
//     an allocation bomb or an emit bomb terminates with a typed error;
//   - every error — compile, runtime, or budget — is a *Error, which
//     classifies as permanent (core.Permanent), so the executor fails fast
//     instead of retrying a script that will fail identically forever.
package script

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Default per-invocation sandbox budgets. One invocation interprets one
// record; these are generous for that (a typical mirror script runs in tens
// of steps) while bounding a hostile one to microseconds.
const (
	// DefaultSteps is the evaluation-step budget: every statement executed
	// and every expression node evaluated costs one step.
	DefaultSteps = 100_000
	// DefaultAllocBytes is the allocation budget: every byte of string a
	// program produces (concatenation, substr, str, key encoding) counts, as
	// does what it hands the adapters (emitted pointers and keys, set fields).
	DefaultAllocBytes = 1 << 20
)

// Limits is the per-invocation sandbox budget. The zero value selects the
// defaults; negative values are treated as zero (nothing allowed).
type Limits struct {
	// Steps bounds evaluation steps per invocation.
	Steps int64
	// AllocBytes bounds string bytes produced or emitted per invocation.
	AllocBytes int64
}

func (l Limits) withDefaults() Limits {
	if l.Steps == 0 {
		l.Steps = DefaultSteps
	}
	if l.AllocBytes == 0 {
		l.AllocBytes = DefaultAllocBytes
	}
	return l
}

// Class partitions script errors by origin.
type Class int

const (
	// ClassCompile is a lex/parse/validation error: the source is broken.
	ClassCompile Class = iota
	// ClassRuntime is an evaluation error: type mismatch, unknown name,
	// division by zero, a host builtin rejecting its arguments.
	ClassRuntime
	// ClassStepBudget means the invocation exhausted Limits.Steps.
	ClassStepBudget
	// ClassAllocBudget means the invocation exhausted Limits.AllocBytes.
	ClassAllocBudget
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCompile:
		return "compile"
	case ClassStepBudget:
		return "step-budget"
	case ClassAllocBudget:
		return "alloc-budget"
	default:
		return "runtime"
	}
}

// Error is the one error type this package produces. It classifies as a
// permanent failure (lake.IsPermanent / core.Permanent detect the Permanent
// method), so the SMPE executor never retries a broken script: the same
// source evaluates the same way on every attempt.
type Error struct {
	// Class is the error's origin.
	Class Class
	// Fn names the function being evaluated ("" for compile errors).
	Fn string
	// Line is the 1-based source line the error is attributed to.
	Line int
	// Msg describes the failure.
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	where := ""
	if e.Fn != "" {
		where = " in " + e.Fn
	}
	return fmt.Sprintf("script: %s error%s (line %d): %s", e.Class, where, e.Line, e.Msg)
}

// Permanent marks every script error as non-retryable for the executor.
func (e *Error) Permanent() bool { return true }

// kind is a Value's dynamic type.
type kind int8

const (
	kindInt kind = iota
	kindStr
	kindBool
)

func (k kind) String() string {
	switch k {
	case kindStr:
		return "string"
	case kindBool:
		return "bool"
	default:
		return "int"
	}
}

// Value is one dynamically-typed script value: int64, string, or bool.
// Keys (lake.Key) travel as strings, which the key* builtins produce in
// order-preserving encoded form.
type Value struct {
	s    string
	i    int64
	kind kind
	b    bool
}

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: kindInt, i: v} }

// Str wraps a string.
func Str(s string) Value { return Value{kind: kindStr, s: s} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{kind: kindBool, b: b} }

// Text renders the value the way the str builtin does: ints in decimal,
// bools as true/false, strings as-is.
func (v Value) Text() string {
	switch v.kind {
	case kindStr:
		return v.s
	case kindBool:
		return strconv.FormatBool(v.b)
	default:
		return strconv.FormatInt(v.i, 10)
	}
}

// IsStr reports whether the value is a string, returning it.
func (v Value) IsStr() (string, bool) { return v.s, v.kind == kindStr }

// IsBool reports whether the value is a bool, returning it.
func (v Value) IsBool() (bool, bool) { return v.b, v.kind == kindBool }

// Package-wide counters, exported to /debug/metrics as lakeharbor_script_*.
var counters struct {
	compiles      atomic.Int64
	compileErrors atomic.Int64
	invocations   atomic.Int64
	steps         atomic.Int64
	stepTrips     atomic.Int64
	allocTrips    atomic.Int64
}

// CounterSnapshot is one consistent-enough read of the package counters.
type CounterSnapshot struct {
	// Compiles counts successful compilations.
	Compiles int64
	// CompileErrors counts sources rejected at compile time.
	CompileErrors int64
	// Invocations counts program function calls that passed the name and arity
	// checks (one per record interpreted, filtered, referenced, or indexed).
	Invocations int64
	// Steps totals the evaluation steps those invocations charged.
	Steps int64
	// StepTrips counts invocations killed by the step budget.
	StepTrips int64
	// AllocTrips counts invocations killed by the allocation budget.
	AllocTrips int64
}

// Counters snapshots the package-wide script counters.
func Counters() CounterSnapshot {
	return CounterSnapshot{
		Compiles:      counters.compiles.Load(),
		CompileErrors: counters.compileErrors.Load(),
		Invocations:   counters.invocations.Load(),
		Steps:         counters.steps.Load(),
		StepTrips:     counters.stepTrips.Load(),
		AllocTrips:    counters.allocTrips.Load(),
	}
}
