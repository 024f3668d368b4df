package script

import (
	"fmt"
	"unsafe"

	"lakeharbor/internal/core"
	"lakeharbor/internal/lake"
)

// The host API: adapters that make a compiled Program implement the engine
// contracts. Every adapter validates its entry function at construction
// time (the registry's validate-at-POST guarantee), and every entry function
// has the same calling convention: two string parameters, the record's
// encoded key and its raw payload.
//
//	fn interpret(key, data) { set("val", …) }          → core.Interpreter
//	fn keep(key, data)      { return … }               → core.Filter (bool)
//	fn ref(key, data)       { emit("file", pk, k) }    → core.Referencer
//	fn partkey(key, data)   { return key }             → indexer.Spec.PartKey
//	fn keys(key, data)      { emit(keyint(…)) }        → indexer.Spec.Keys
//
// Contract-specific builtins (set, emit, emitbroadcast, emitrange, carry,
// carrycomposite) are bound when the adapter is built; a script can only do
// what the contract it serves allows. They are static functions over the
// invocation's frame, which owns what they accumulate, so an adapter builds
// no map and no closure per record. What they make the host retain (a
// pointer, a field, an index key) is charged against the allocation budget.

// Fixed cost the adapters charge per retained item, before its string bytes.
const (
	pointerBytes = int(unsafe.Sizeof(lake.Pointer{}))
	stringBytes  = int(unsafe.Sizeof(""))
)

// entry is one validated (key, data) entry function, bound to the builtins
// of the contract it serves.
type entry struct {
	lf   *loweredFn
	lim  Limits
	host []hostFn
}

// entry validates that fn exists and takes (key, data), and resolves the
// host builtins it calls against contract's. A name the contract lacks stays
// nil: an unknown function when (and only when) a call reaches it.
func (p *Program) entry(fn string, lim Limits, contract map[string]hostFn) (*entry, error) {
	d, ok := p.fns[fn]
	if !ok {
		return nil, &Error{Class: ClassCompile, Fn: fn, Line: 1, Msg: "program declares no function " + fn}
	}
	lf := d.low
	if lf.nparams != 2 {
		return nil, &Error{Class: ClassCompile, Fn: fn, Line: 1,
			Msg: fmt.Sprintf("%s takes %d parameters, want 2 (key, data)", fn, lf.nparams)}
	}
	host := make([]hostFn, len(lf.hostNames))
	for i, name := range lf.hostNames {
		host[i] = contract[name]
	}
	return &entry{lf: lf, lim: lim.withDefaults(), host: host}, nil
}

// invoke runs the entry function on rec. The payload is converted (copied)
// only for a function that reads it; the key is a string already. The caller
// takes what the contract accumulated out of the frame, then releases it.
func (e *entry) invoke(rec lake.Record) (*frame, Value, error) {
	fr := e.lf.newFrame(e.lim)
	fr.host, fr.rec, fr.locals[0] = e.host, rec, Str(rec.Key)
	if e.lf.reads[1] {
		fr.locals[1] = Str(string(rec.Data))
	}
	v, err := e.lf.invoke(fr)
	return fr, v, err
}

// resultErr faults an entry function that returned the wrong kind.
func (e *entry) resultErr(what string, got Value, want kind) error {
	return &Error{Class: ClassRuntime, Fn: e.lf.name, Line: 1,
		Msg: fmt.Sprintf("%s returned %s, want %s", what, got.kind, want)}
}

// emitted validates an emit-style builtin's n string arguments and charges
// what the host is about to retain for them — header bytes plus the strings
// — so a loop around emit ends at the allocation budget.
func (fr *frame) emitted(fn string, line int, args []Value, n, header int) error {
	if len(args) != n {
		return fmt.Errorf("%s takes %d arguments, got %d", fn, n, len(args))
	}
	for i, a := range args {
		if a.kind != kindStr {
			return fmt.Errorf("%s argument %d is %s, want string", fn, i+1, a.kind)
		}
		header += len(a.s)
	}
	fr.charge(header, line)
	return nil
}

// NewInterpreter adapts fn to core.Interpreter. The script names fields via
// set(name, value); values are stored in their text form.
func (p *Program) NewInterpreter(fn string, lim Limits) (core.Interpreter, error) {
	e, err := p.entry(fn, lim, map[string]hostFn{"set": hostSet})
	if err != nil {
		return nil, err
	}
	return func(rec lake.Record) (core.Fields, error) {
		fr, _, err := e.invoke(rec)
		names, values := fr.names, fr.values
		fr.release()
		if err != nil {
			return core.Fields{}, err
		}
		return core.NewFields(names, values), nil
	}, nil
}

func hostSet(fr *frame, line int, args []Value) error {
	if len(args) != 2 {
		return fmt.Errorf("set takes 2 arguments, got %d", len(args))
	}
	name, ok := args[0].IsStr()
	if !ok {
		return fmt.Errorf("set field name is %s, want string", args[0].kind)
	}
	value := args[1].Text()
	fr.charge(2*stringBytes+len(name)+len(value), line)
	fr.names, fr.values = append(fr.names, name), append(fr.values, value)
	return nil
}

// NewFilter adapts fn to core.Filter. The script must return a bool.
func (p *Program) NewFilter(fn string, lim Limits) (core.Filter, error) {
	e, err := p.entry(fn, lim, nil)
	if err != nil {
		return nil, err
	}
	return func(rec lake.Record) (bool, error) {
		fr, v, err := e.invoke(rec)
		fr.release()
		if err != nil {
			return false, err
		}
		keep, ok := v.IsBool()
		if !ok {
			return false, e.resultErr("filter", v, kindBool)
		}
		return keep, nil
	}, nil
}

// Referencer is a scripted core.Referencer: each invocation evaluates the
// entry function, collecting the pointers it emits.
type Referencer struct {
	label string
	entry *entry
}

// NewReferencer adapts fn to core.Referencer. Inside the script:
//
//	emit(file, partkey, key)   a routed point pointer
//	emitbroadcast(file, key)   a broadcast point pointer (all partitions)
//	emitrange(file, lo, hi)    a broadcast range pointer [lo, hi]
//	carry()                    attach this record's payload as carried
//	                           context to every pointer emitted after the
//	                           call (multi-way join state, CarryRecord)
//	carrycomposite()           carry the payload as an existing segment
//	                           list (CarryComposite)
func (p *Program) NewReferencer(label, fn string, lim Limits) (*Referencer, error) {
	e, err := p.entry(fn, lim, referencerHost)
	if err != nil {
		return nil, err
	}
	return &Referencer{label: label, entry: e}, nil
}

// Name implements core.Referencer.
func (r *Referencer) Name() string { return "Script(" + r.label + ")" }

// Ref implements core.Referencer.
func (r *Referencer) Ref(tc *core.TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	fr, _, err := r.entry.invoke(rec)
	out := fr.out
	fr.release()
	if err != nil {
		return nil, err
	}
	return out, nil
}

var referencerHost = map[string]hostFn{
	"emit": func(fr *frame, line int, a []Value) error {
		if err := fr.emitted("emit", line, a, 3, pointerBytes); err != nil {
			return err
		}
		fr.out = append(fr.out, lake.Pointer{File: a[0].s, PartKey: a[1].s, Key: a[2].s, Carry: fr.carry})
		return nil
	},
	"emitbroadcast": func(fr *frame, line int, a []Value) error {
		if err := fr.emitted("emitbroadcast", line, a, 2, pointerBytes); err != nil {
			return err
		}
		fr.out = append(fr.out, lake.Pointer{File: a[0].s, NoPart: true, Key: a[1].s, Carry: fr.carry})
		return nil
	},
	"emitrange": func(fr *frame, line int, a []Value) error {
		if err := fr.emitted("emitrange", line, a, 3, pointerBytes); err != nil {
			return err
		}
		fr.out = append(fr.out, lake.Pointer{File: a[0].s, NoPart: true, Key: a[1].s, EndKey: a[2].s, Carry: fr.carry})
		return nil
	},
	"carry": func(fr *frame, _ int, args []Value) error {
		if len(args) != 0 {
			return fmt.Errorf("carry takes no arguments")
		}
		fr.carry = lake.EncodeSegments(fr.rec.Data)
		return nil
	},
	"carrycomposite": func(fr *frame, _ int, args []Value) error {
		if len(args) != 0 {
			return fmt.Errorf("carrycomposite takes no arguments")
		}
		fr.carry = fr.rec.Data
		return nil
	},
}

// PartKeyFunc adapts fn to an indexer.Spec.PartKey extractor: the script
// returns the partition key as a string.
func (p *Program) PartKeyFunc(fn string, lim Limits) (func(lake.Record) (lake.Key, error), error) {
	e, err := p.entry(fn, lim, nil)
	if err != nil {
		return nil, err
	}
	return func(rec lake.Record) (lake.Key, error) {
		fr, v, err := e.invoke(rec)
		fr.release()
		if err != nil {
			return "", err
		}
		s, ok := v.IsStr()
		if !ok {
			return "", e.resultErr("partition-key function", v, kindStr)
		}
		return s, nil
	}, nil
}

// KeysFunc adapts fn to an indexer.Spec.Keys extractor: the script emits
// zero or more index keys via emit(key).
func (p *Program) KeysFunc(fn string, lim Limits) (func(lake.Record) ([]lake.Key, error), error) {
	e, err := p.entry(fn, lim, map[string]hostFn{"emit": hostEmitKey})
	if err != nil {
		return nil, err
	}
	return func(rec lake.Record) ([]lake.Key, error) {
		fr, _, err := e.invoke(rec)
		keys := fr.names
		fr.release()
		if err != nil {
			return nil, err
		}
		return keys, nil
	}, nil
}

// hostEmitKey collects index keys where set collects field names.
func hostEmitKey(fr *frame, line int, args []Value) error {
	if err := fr.emitted("emit", line, args, 1, stringBytes); err != nil {
		return err
	}
	fr.names = append(fr.names, args[0].s)
	return nil
}
