package script

import (
	"fmt"

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
// carrycomposite) are installed per invocation; a script can only do what
// the contract it serves allows.

// checkEntry validates that fn exists and takes (key, data).
func (p *Program) checkEntry(fn string) error {
	switch n := p.Params(fn); n {
	case -1:
		return &Error{Class: ClassCompile, Fn: fn, Line: 1, Msg: "program declares no function " + fn}
	case 2:
		return nil
	default:
		return &Error{Class: ClassCompile, Fn: fn, Line: 1,
			Msg: fmt.Sprintf("%s takes %d parameters, want 2 (key, data)", fn, n)}
	}
}

func wantStr(fn string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s takes %d arguments, got %d", fn, n, len(args))
	}
	for i, a := range args {
		if _, ok := a.IsStr(); !ok {
			return fmt.Errorf("%s argument %d is %s, want string", fn, i+1, a.kind)
		}
	}
	return nil
}

// NewInterpreter adapts fn to core.Interpreter. The script names fields via
// set(name, value); values are stored in their text form.
func (p *Program) NewInterpreter(fn string, lim Limits) (core.Interpreter, error) {
	if err := p.checkEntry(fn); err != nil {
		return nil, err
	}
	return func(rec lake.Record) (core.Fields, error) {
		var names, values []string
		host := map[string]Builtin{
			"set": func(args []Value) (Value, error) {
				if len(args) != 2 {
					return Value{}, fmt.Errorf("set takes 2 arguments, got %d", len(args))
				}
				name, ok := args[0].IsStr()
				if !ok {
					return Value{}, fmt.Errorf("set field name is %s, want string", args[0].kind)
				}
				names = append(names, name)
				values = append(values, args[1].Text())
				return Value{}, nil
			},
		}
		if _, err := p.Call(fn, lim, host, Str(string(rec.Key)), Str(string(rec.Data))); err != nil {
			return core.Fields{}, err
		}
		return core.NewFields(names, values), nil
	}, nil
}

// NewFilter adapts fn to core.Filter. The script must return a bool.
func (p *Program) NewFilter(fn string, lim Limits) (core.Filter, error) {
	if err := p.checkEntry(fn); err != nil {
		return nil, err
	}
	return func(rec lake.Record) (bool, error) {
		v, err := p.Call(fn, lim, nil, Str(string(rec.Key)), Str(string(rec.Data)))
		if err != nil {
			return false, err
		}
		keep, ok := v.IsBool()
		if !ok {
			return false, &Error{Class: ClassRuntime, Fn: fn, Line: 1,
				Msg: fmt.Sprintf("filter returned %s, want bool", v.kind)}
		}
		return keep, nil
	}, nil
}

// Referencer is a scripted core.Referencer: each invocation evaluates the
// entry function, collecting the pointers it emits.
type Referencer struct {
	label string
	fn    string
	p     *Program
	lim   Limits
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
	if err := p.checkEntry(fn); err != nil {
		return nil, err
	}
	return &Referencer{label: label, fn: fn, p: p, lim: lim}, nil
}

// Name implements core.Referencer.
func (r *Referencer) Name() string { return "Script(" + r.label + ")" }

// Ref implements core.Referencer.
func (r *Referencer) Ref(tc *core.TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	var out []lake.Pointer
	var carry []byte
	host := map[string]Builtin{
		"emit": func(args []Value) (Value, error) {
			if err := wantStr("emit", args, 3); err != nil {
				return Value{}, err
			}
			out = append(out, lake.Pointer{
				File: args[0].s, PartKey: lake.Key(args[1].s), Key: lake.Key(args[2].s), Carry: carry,
			})
			return Value{}, nil
		},
		"emitbroadcast": func(args []Value) (Value, error) {
			if err := wantStr("emitbroadcast", args, 2); err != nil {
				return Value{}, err
			}
			out = append(out, lake.Pointer{
				File: args[0].s, NoPart: true, Key: lake.Key(args[1].s), Carry: carry,
			})
			return Value{}, nil
		},
		"emitrange": func(args []Value) (Value, error) {
			if err := wantStr("emitrange", args, 3); err != nil {
				return Value{}, err
			}
			out = append(out, lake.Pointer{
				File: args[0].s, NoPart: true, Key: lake.Key(args[1].s), EndKey: lake.Key(args[2].s), Carry: carry,
			})
			return Value{}, nil
		},
		"carry": func(args []Value) (Value, error) {
			if len(args) != 0 {
				return Value{}, fmt.Errorf("carry takes no arguments")
			}
			carry = lake.EncodeSegments(rec.Data)
			return Value{}, nil
		},
		"carrycomposite": func(args []Value) (Value, error) {
			if len(args) != 0 {
				return Value{}, fmt.Errorf("carrycomposite takes no arguments")
			}
			carry = rec.Data
			return Value{}, nil
		},
	}
	if _, err := r.p.Call(r.fn, r.lim, host, Str(string(rec.Key)), Str(string(rec.Data))); err != nil {
		return nil, err
	}
	return out, nil
}

// PartKeyFunc adapts fn to an indexer.Spec.PartKey extractor: the script
// returns the partition key as a string.
func (p *Program) PartKeyFunc(fn string, lim Limits) (func(lake.Record) (lake.Key, error), error) {
	if err := p.checkEntry(fn); err != nil {
		return nil, err
	}
	return func(rec lake.Record) (lake.Key, error) {
		v, err := p.Call(fn, lim, nil, Str(string(rec.Key)), Str(string(rec.Data)))
		if err != nil {
			return "", err
		}
		s, ok := v.IsStr()
		if !ok {
			return "", &Error{Class: ClassRuntime, Fn: fn, Line: 1,
				Msg: fmt.Sprintf("partition-key function returned %s, want string", v.kind)}
		}
		return lake.Key(s), nil
	}, nil
}

// KeysFunc adapts fn to an indexer.Spec.Keys extractor: the script emits
// zero or more index keys via emit(key).
func (p *Program) KeysFunc(fn string, lim Limits) (func(lake.Record) ([]lake.Key, error), error) {
	if err := p.checkEntry(fn); err != nil {
		return nil, err
	}
	return func(rec lake.Record) ([]lake.Key, error) {
		var keys []lake.Key
		host := map[string]Builtin{
			"emit": func(args []Value) (Value, error) {
				if err := wantStr("emit", args, 1); err != nil {
					return Value{}, err
				}
				keys = append(keys, lake.Key(args[0].s))
				return Value{}, nil
			},
		}
		if _, err := p.Call(fn, lim, host, Str(string(rec.Key)), Str(string(rec.Data))); err != nil {
			return nil, err
		}
		return keys, nil
	}, nil
}
