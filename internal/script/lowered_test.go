package script_test

// The differential check that lets the tree walker retire from production:
// the lowered code (lower.go) against the reference evaluator
// (reference_test.go) on every program this repo runs, under every budget
// that can make them differ.

import (
	"errors"
	"strings"
	"testing"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/oracle"
	"lakeharbor/internal/script"
)

// handSeeds are grammar and sandbox edges the generated corpus does not
// reach; FuzzScript starts from them too.
var handSeeds = []string{
	`fn f(a) { return -a * 2 + 1 }`,
	`fn f() { let s = "x" while len(s) < 100 { s = s + s } return s }`,
	`fn f(a, b) { if a == b { return 1 } else { if a < b { return 2 } } return 3 }`,
	`fn f() { return 1 && true }`,
	`fn f() { return (1 + 2) * (3 - 4) / 5 % 6 }`,
	`fn f() { return "a\"b\\c\nd\te" }`,
	`fn f() { return 9223372036854775807 }`,
	`fn loop() { while true { } }`,
	`fn f(key, data) { return substr(data, find(data, "|"), len(data)) }`,
	"fn f() { # comment\n\treturn 0\n}",
}

// edgeSeeds pin the places where lowering decides something the reference
// decides per evaluation: a let that may not have run, an assignment checked
// before its right-hand side, builtin arity and kind errors raised after
// the arguments were charged, operators on the wrong kind, host calls
// nested in host-call arguments.
var edgeSeeds = []string{
	`fn f(a) { if a == "never" { let x = 1 } return x }`,
	`fn f(a) { let i = 0 while i < 3 { if i > 0 { a = a + y } let y = "." i = i + 1 } return a }`,
	`fn f(a) { x = boom(a) }`,
	`fn f(a) { a = a + a let a = len(a) return a }`,
	`fn f(a, b) { return len(a, b) + substr(a) + find(a) }`,
	`fn f(a, b) { return substr(b, a, a) }`,
	`fn f(a, b) { return keyint(a) + keystr(b) + str(b) + str(true) }`,
	`fn f(a) { return indexpart(a) + indexkey(a) }`,
	`fn f(a, b) { return a - b }`,
	`fn f(a, b) { return (a == a) < (b == b) }`,
	`fn f(a, b) { return a / b + a % b }`,
	`fn f(a, b) { return !a || -b == 0 }`,
	`fn f(a, b) { a; -b; (a); return; }`,
	`fn f(a, b) { return emit(a, emit(b, set(a, b)), nosuch(carry())) }`,
	`fn f(a) { while a { return 1 } }`,
	`fn f(a, b) { return a < b && b < a || a == b }`,
	// No statement separator: these print with the parentheses that keep
	// their statements apart (found by FuzzScript's fixed-point property).
	`fn f(a){(0)(-0)}`,
	`fn f(a){(a)(a)(-0)}`,
	`fn f(a) { let b = (a) (1 + 2) * 3 return (b) (-a) }`,
}

func corpusHost() map[string]script.Builtin {
	host := fuzzHost()
	host["boom"] = func([]script.Value) (script.Value, error) { return script.Value{}, errors.New("host says no") }
	return host
}

// argLists returns the argument lists an n-parameter function is compared
// on: the fuzz window, and for (key, data) entry points the payloads the
// access methods see — an "id|val" row, an orders row, an index entry.
func argLists(n int) [][]script.Value {
	lists := [][]script.Value{fuzzArgs[:n]}
	if n == 2 {
		entry := string(lake.EncodeIndexEntry(keycodec.Int64(9), keycodec.Int64(4)))
		for _, data := range []string{"7|3", "1|370|1154|172799.49", entry, strings.Repeat("x", 300)} {
			lists = append(lists, []script.Value{script.Str(keycodec.Int64(7)), script.Str(data)})
		}
		lists = append(lists, []script.Value{script.Int(6), script.Int(0)}, []script.Value{script.Bool(true), script.Int(-3)})
	}
	return lists
}

// sameAsReference runs fn through the lowered code and through the
// reference evaluator and fails on any difference in value, error or step
// total. It returns the reference's outcome.
func sameAsReference(t *testing.T, p *script.Program, fn string, lim script.Limits, host map[string]script.Builtin, args []script.Value) (steps int64, err error) {
	t.Helper()
	before := script.Counters()
	got, gotErr := p.Call(fn, lim, host, args...)
	after := script.Counters()
	want, steps, wantErr := script.RefCall(p, fn, lim, host, args...)

	fail := func(format string, a ...any) {
		t.Helper()
		t.Fatalf("%s%v under %+v: "+format+"\nsource:\n%s", append([]any{fn, args, lim}, append(a, p.Source())...)...)
	}
	if (gotErr == nil) != (wantErr == nil) {
		fail("lowered error %v, reference error %v", gotErr, wantErr)
	}
	var trips script.CounterSnapshot
	if wantErr != nil {
		var g, w *script.Error
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) {
			fail("untyped error: lowered %T, reference %T", gotErr, wantErr)
		}
		if *g != *w {
			fail("lowered %+v, reference %+v", *g, *w)
		}
		switch w.Class {
		case script.ClassStepBudget:
			trips.StepTrips = 1
		case script.ClassAllocBudget:
			trips.AllocTrips = 1
		}
	} else if got != want {
		fail("lowered %#v, reference %#v", got, want)
	}
	if n := after.Steps - before.Steps; n != steps {
		fail("lowered charged %d steps, reference %d", n, steps)
	}
	if after.Invocations-before.Invocations != 1 ||
		after.StepTrips-before.StepTrips != trips.StepTrips || after.AllocTrips-before.AllocTrips != trips.AllocTrips {
		fail("counters moved by %+v, want one invocation and trips %+v", after, trips)
	}
	return steps, wantErr
}

func isClass(err error, c script.Class) bool {
	var serr *script.Error
	return errors.As(err, &serr) && serr.Class == c
}

func TestLoweredMatchesReference(t *testing.T) {
	var sources []string
	sources = append(sources, oracle.ScriptCorpus()...)
	sources = append(sources, script.Q5Source)
	sources = append(sources, handSeeds...)
	sources = append(sources, edgeSeeds...)

	// Small enough that sweeping every budget below a runaway loop's stays
	// cheap, large enough that every terminating program here finishes.
	base := script.Limits{Steps: 1500, AllocBytes: 1 << 12}
	host := corpusHost()
	calls := 0
	for _, src := range sources {
		p, err := script.Compile(src)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		for _, fn := range p.Funcs() {
			for _, args := range argLists(p.Params(fn)) {
				steps, _ := sameAsReference(t, p, fn, base, host, args)
				calls++

				// The step sweep: under every budget up to one past what the
				// call charged, both sides trip — or not — at the same node.
				tripped := 0
				for n := int64(1); n <= steps+1 && n <= base.Steps; n++ {
					_, err := sameAsReference(t, p, fn, script.Limits{Steps: n, AllocBytes: base.AllocBytes}, host, args)
					if isClass(err, script.ClassStepBudget) {
						tripped++
					}
				}
				if want := min(steps, base.Steps) - 1; int64(tripped) < want {
					t.Fatalf("%s%v charged %d steps but only %d smaller budgets tripped\n%s", fn, args, steps, tripped, src)
				}

				// The allocation sweep: byte by byte until the call fits.
				for n := int64(1); n <= base.AllocBytes+1; n++ {
					_, err := sameAsReference(t, p, fn, script.Limits{Steps: base.Steps, AllocBytes: n}, host, args)
					if !isClass(err, script.ClassAllocBudget) {
						break
					}
				}
			}
		}
	}
	if calls < 100 {
		t.Fatalf("compared only %d calls; the corpus shrank", calls)
	}
}

// TestCallCountsOnlyRealInvocations: a typo'd function name or a wrong
// argument count never reaches the program, so it is not an invocation.
func TestCallCountsOnlyRealInvocations(t *testing.T) {
	p := script.MustCompile(`fn main(a) { return a }`)
	before := script.Counters()
	if _, err := p.Call("mian", script.Limits{}, nil, script.Int(1)); err == nil {
		t.Fatal("call of an undeclared function succeeded")
	}
	if _, err := p.Call("main", script.Limits{}, nil); err == nil {
		t.Fatal("call with a missing argument succeeded")
	}
	if after := script.Counters(); after.Invocations != before.Invocations || after.Steps != before.Steps {
		t.Fatalf("rejected calls were counted: %+v then %+v", before, after)
	}
	if _, err := p.Call("main", script.Limits{}, nil, script.Int(1)); err != nil {
		t.Fatal(err)
	}
	after := script.Counters()
	if after.Invocations != before.Invocations+1 || after.Steps != before.Steps+2 {
		t.Fatalf("one two-step call moved the counters from %+v to %+v", before, after)
	}
	stats := p.Stats()
	if len(stats) != 1 || stats[0].Name != "main" || stats[0].Calls != 1 || stats[0].Steps != 2 {
		t.Fatalf("Stats = %+v, want main with 1 call and 2 steps", stats)
	}
}
