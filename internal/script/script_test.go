package script

import (
	"errors"
	"strings"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// eval compiles one fn main(...) body and calls it.
func evalSrc(t *testing.T, src string, args ...Value) (Value, error) {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	return p.Call("main", Limits{}, nil, args...)
}

func TestLanguageSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		args []Value
		want Value
	}{
		{"arith", `fn main() { return (1 + 2) * 3 - 10 / 2 % 3 }`, nil, Int(7)},
		{"negatives", `fn main() { return -7 / 2 }`, nil, Int(-3)},
		{"cmp-chain-parens", `fn main(v) { return (0 <= v) == (v <= 9) }`, []Value{Int(4)}, Bool(true)},
		{"bool-logic", `fn main() { return !(true && false) || false }`, nil, Bool(true)},
		{"short-circuit", `fn main() { return false && 1 / 0 == 0 }`, nil, Bool(false)},
		{"string-concat", `fn main(a, b) { return a + "|" + b }`, []Value{Str("x"), Str("y")}, Str("x|y")},
		{"string-order", `fn main() { return "abc" < "abd" && "ab" <= "ab" }`, nil, Bool(true)},
		{"let-assign", `fn main() { let x = 1 x = x + 2 return x }`, nil, Int(3)},
		{"if-else", `fn main(v) { if v > 10 { return 1 } else if v > 5 { return 2 } else { return 3 } }`, []Value{Int(7)}, Int(2)},
		{"while-sum", `fn main(n) {
			let s = 0
			let i = 1
			while i <= n {
				s = s + i
				i = i + 1
			}
			return s
		}`, []Value{Int(10)}, Int(55)},
		{"bare-return", `fn main() { return }`, nil, Value{}},
		{"no-return", `fn main() { let x = 1 }`, nil, Value{}},
		{"builtin-len-substr-find", `fn main(s) {
			let i = find(s, "|")
			return substr(s, i + 1, len(s))
		}`, []Value{Str("42|val")}, Str("val")},
		{"substr-clamps", `fn main(s) { return substr(s, -3, 99) + substr(s, 2, 1) }`, []Value{Str("ab")}, Str("ab")},
		{"substr-negative-end", `fn main(s) { return substr(s, 0, -1) + substr(s, -5, -2) + "ok" }`, []Value{Str("ab")}, Str("ok")},
		{"find-missing", `fn main() { return find("abc", "z") }`, nil, Int(-1)},
		{"int-str-roundtrip", `fn main() { return str(int("-17") + 1) }`, nil, Str("-16")},
		{"comments", "fn main() { # comment\n\treturn 1 # trailing\n}", nil, Int(1)},
		{"multi-fn", `fn other() { return 9 }
fn main() { return 5 }`, nil, Int(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := evalSrc(t, tc.src, tc.args...)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if got != tc.want {
				t.Fatalf("got %#v, want %#v", got, tc.want)
			}
		})
	}
}

func TestKeyBuiltinsMatchKeycodec(t *testing.T) {
	v, err := evalSrc(t, `fn main(n) { return keyint(n) }`, Int(-42))
	if err != nil {
		t.Fatal(err)
	}
	if v.Text() != keycodec.Int64(-42) {
		t.Fatalf("keyint(-42) = %q, want keycodec.Int64", v.Text())
	}
	v, err = evalSrc(t, `fn main(s) { return keystr(s) }`, Str("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Text() != keycodec.String("hello") {
		t.Fatalf("keystr = %q, want keycodec.String", v.Text())
	}
}

func TestIndexEntryBuiltins(t *testing.T) {
	entry := string(lake.EncodeIndexEntry(lake.Key("part-k"), lake.Key("primary-k")))
	p := MustCompile(`fn part(key, data) { return indexpart(data) }
fn pk(key, data) { return indexkey(data) }`)
	v, err := p.Call("part", Limits{}, nil, Str("k"), Str(entry))
	if err != nil || v.Text() != "part-k" {
		t.Fatalf("indexpart = %q, %v", v.Text(), err)
	}
	v, err = p.Call("pk", Limits{}, nil, Str("k"), Str(entry))
	if err != nil || v.Text() != "primary-k" {
		t.Fatalf("indexkey = %q, %v", v.Text(), err)
	}
	if _, err := p.Call("part", Limits{}, nil, Str("k"), Str("garbage")); err == nil {
		t.Fatal("indexpart accepted a non-entry payload")
	}
}

func TestRuntimeErrorsAreTypedAndPermanent(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"div-zero", `fn main() { return 1 / 0 }`},
		{"mod-zero", `fn main() { return 1 % 0 }`},
		{"overflow-div", `fn main() { return (-9223372036854775807 - 1) / -1 }`},
		{"overflow-neg", `fn main() { let x = -9223372036854775807 - 1 return -x }`},
		{"type-mismatch", `fn main() { return 1 + "x" }`},
		{"bad-cond", `fn main() { if 1 { return 2 } return 3 }`},
		{"undefined-var", `fn main() { return nope }`},
		{"assign-undeclared", `fn main() { x = 1 }`},
		{"unknown-fn", `fn main() { return launch_missiles() }`},
		{"bad-int", `fn main() { return int("xyz") }`},
		{"not-on-int", `fn main() { return !3 }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := evalSrc(t, tc.src)
			if err == nil {
				t.Fatal("expected a runtime error")
			}
			var serr *Error
			if !errors.As(err, &serr) {
				t.Fatalf("error %v is not *script.Error", err)
			}
			if serr.Class != ClassRuntime {
				t.Fatalf("class %v, want runtime", serr.Class)
			}
			if !lake.IsPermanent(err) {
				t.Fatalf("error %v does not classify as permanent", err)
			}
		})
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"garbage", "@@@"},
		{"no-fn", "let x = 1"},
		{"unterminated-block", "fn main() { return 1"},
		{"unterminated-string", `fn main() { return "abc }`},
		{"newline-in-string", "fn main() { return \"a\nb\" }"},
		{"bad-escape", `fn main() { return "\q" }`},
		{"dup-fn", "fn a() { return 1 }\nfn a() { return 2 }"},
		{"dup-param", "fn a(x, x) { return x }"},
		{"keyword-name", "fn while() { return 1 }"},
		{"chained-cmp", "fn a() { return 1 < 2 < 3 }"},
		{"int-overflow", "fn a() { return 99999999999999999999 }"},
		{"deep-nesting", "fn a() { return " + strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100) + " }"},
		{"too-many-params", "fn a(p1, p2, p3, p4, p5, p6, p7, p8, p9) { return 1 }"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatal("expected a compile error")
			}
			var serr *Error
			if !errors.As(err, &serr) || serr.Class != ClassCompile {
				t.Fatalf("error %v is not a compile-classed *script.Error", err)
			}
			if !lake.IsPermanent(err) {
				t.Fatalf("error %v does not classify as permanent", err)
			}
		})
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	srcs := []string{
		`fn main(key, data) {
			let i = find(data, "|")
			if i < 0 { return false }
			let v = int(substr(data, i + 1, len(data)))
			return 3 <= v && v <= 7
		}`,
		`fn ref(key, data) {
			carry()
			emit("dim", keyint(1), keyint(1))
		}`,
		`fn f(a, b) { return (a + b) * -(a - b) % 7 }`,
		`fn g(x) { return (0 <= x) == (x <= 9) }`,
		`fn h() { return "quote \" backslash \\ tab \t newline \n done" }`,
		`fn loop(n) { let i = 0 while i < n { i = i + 1 } return i }`,
		`fn e(x) { if x > 0 { return 1 } else if x < 0 { return -1 } else { return 0 } }`,
	}
	for _, src := range srcs {
		p1, err := Compile(src)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		c1 := p1.Canonical()
		p2, err := Compile(c1)
		if err != nil {
			t.Fatalf("canonical output does not recompile: %v\n%s", err, c1)
		}
		if c2 := p2.Canonical(); c1 != c2 {
			t.Fatalf("canonical form unstable:\nfirst:\n%s\nsecond:\n%s", c1, c2)
		}
	}
}

// TestStatementTerminator pins the optional ";": it ends a statement where
// the text would otherwise run on, and a source without one parses as
// before.
func TestStatementTerminator(t *testing.T) {
	for _, c := range []struct {
		src   string
		stmts int
	}{
		{`fn f(a, b) { a -b }`, 1},    // a - b
		{`fn f(a, b) { a; -b }`, 2},   // a, then -b
		{`fn f(a, b) { a (b) }`, 1},   // the call a(b)
		{`fn f(a, b) { a; (b); }`, 2}, // a, then b
		{`fn f(a) { let x = a; x = x + 1; return; }`, 3},
		{`fn f(a) { if a { return 1; } return 0 }`, 2},
	} {
		p, err := Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if n := len(p.fns["f"].body); n != c.stmts {
			t.Errorf("%s: %d statements, want %d", c.src, n, c.stmts)
		}
	}
	for _, src := range []string{`fn f() { ; }`, `fn f() { return 1;; }`, `fn f() { } ;`} {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s compiled; a \";\" only ends a statement", src)
		}
	}
}

func TestInterpreterAdapter(t *testing.T) {
	p := MustCompile(`fn interpret(key, data) {
		let i = find(data, "|")
		set("id", substr(data, 0, i))
		set("val", substr(data, i + 1, len(data)))
	}`)
	interp, err := p.NewInterpreter("interpret", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := interp(lake.Record{Key: "k", Data: []byte("12|34")})
	if err != nil {
		t.Fatal(err)
	}
	if get(fields, "id") != "12" || get(fields, "val") != "34" {
		t.Fatalf("fields = %v", fields)
	}
	if _, err := p.NewInterpreter("nope", Limits{}); err == nil {
		t.Fatal("adapter accepted a missing entry function")
	}
	if _, err := p.NewInterpreter("interpret", Limits{}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterAdapter(t *testing.T) {
	p := MustCompile(`fn keep(key, data) { return int(data) % 2 == 0 }
fn notbool(key, data) { return 1 }`)
	filter, err := p.NewFilter("keep", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		data string
		want bool
	}{{"4", true}, {"5", false}} {
		got, err := filter(lake.Record{Data: []byte(tc.data)})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("keep(%s) = %v", tc.data, got)
		}
	}
	bad, err := p.NewFilter("notbool", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad(lake.Record{Data: []byte("1")}); err == nil || !lake.IsPermanent(err) {
		t.Fatalf("non-bool filter result should be a permanent error, got %v", err)
	}
}

func TestReferencerAdapter(t *testing.T) {
	p := MustCompile(`fn ref(key, data) {
		emit("routed", keystr("pk"), keystr("k"))
		carry()
		emitbroadcast("bcast", keyint(7))
		emitrange("rng", keyint(1), keyint(3))
	}`)
	ref, err := p.NewReferencer("test", "ref", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Name() != "Script(test)" {
		t.Fatalf("Name = %q", ref.Name())
	}
	ptrs, err := ref.Ref(&core.TaskCtx{}, lake.Record{Key: "rk", Data: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 3 {
		t.Fatalf("got %d pointers, want 3", len(ptrs))
	}
	if p0 := ptrs[0]; p0.File != "routed" || p0.PartKey != keycodec.String("pk") ||
		p0.Key != keycodec.String("k") || p0.NoPart || p0.Carry != nil {
		t.Fatalf("routed pointer %+v", p0)
	}
	if p1 := ptrs[1]; p1.File != "bcast" || !p1.NoPart || p1.Key != keycodec.Int64(7) ||
		string(p1.Carry) != string(lake.EncodeSegments([]byte("payload"))) {
		t.Fatalf("broadcast pointer %+v", p1)
	}
	if p2 := ptrs[2]; p2.File != "rng" || !p2.NoPart || p2.Key != keycodec.Int64(1) || p2.EndKey != keycodec.Int64(3) {
		t.Fatalf("range pointer %+v", p2)
	}
}

func TestSpecExtractorAdapters(t *testing.T) {
	p := MustCompile(`fn partkey(key, data) { return key }
fn keys(key, data) {
	let i = find(data, "|")
	if 0 <= i {
		emit(keyint(int(substr(data, i + 1, len(data)))))
	}
}`)
	pk, err := p.PartKeyFunc("partkey", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	keysFn, err := p.KeysFunc("keys", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rec := lake.Record{Key: keycodec.Int64(5), Data: []byte("5|33")}
	k, err := pk(rec)
	if err != nil || k != rec.Key {
		t.Fatalf("partkey = %q, %v", k, err)
	}
	keys, err := keysFn(rec)
	if err != nil || len(keys) != 1 || keys[0] != keycodec.Int64(33) {
		t.Fatalf("keys = %v, %v", keys, err)
	}
	// No separator: the script emits nothing — a record may simply not be
	// indexed.
	keys, err = keysFn(lake.Record{Key: "k", Data: []byte("nosep")})
	if err != nil || len(keys) != 0 {
		t.Fatalf("keys(nosep) = %v, %v", keys, err)
	}
}

func TestContractBuiltinsAreScoped(t *testing.T) {
	// emit is a referencer/keys builtin; a filter invocation must not see it.
	p := MustCompile(`fn keep(key, data) { emit("f", key, key) return true }`)
	filter, err := p.NewFilter("keep", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := filter(lake.Record{Key: "k"}); err == nil || !strings.Contains(err.Error(), "unknown function emit") {
		t.Fatalf("filter saw the emit builtin: %v", err)
	}
}

func TestCountersAdvance(t *testing.T) {
	before := Counters()
	p := MustCompile(`fn main() { return 1 }`)
	if _, err := p.Call("main", Limits{}, nil); err != nil {
		t.Fatal(err)
	}
	_, _ = Compile("@broken@")
	after := Counters()
	if after.Compiles <= before.Compiles {
		t.Fatal("Compiles did not advance")
	}
	if after.CompileErrors <= before.CompileErrors {
		t.Fatal("CompileErrors did not advance")
	}
	if after.Invocations <= before.Invocations {
		t.Fatal("Invocations did not advance")
	}
}

// get reads one field of an interpreted record; a missing field reads "".
func get(f core.Fields, name string) string {
	v, _ := f.Get(name)
	return v
}
