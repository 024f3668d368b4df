package script_test

// Fuzz targets for the whole interpreter pipeline. Four properties, none
// of which any input may break:
//
//  1. No panics: lexer, parser, printer, lowering and the lowered code only
//     ever return typed errors, whatever bytes arrive.
//  2. Termination: with a step budget set, every call returns — loops
//     cannot outlive their budget.
//  3. Canonical stability: Compile ∘ Canonical is a fixed point — printing
//     a compiled program and recompiling the print yields the same print.
//  4. Lowered ≡ reference: every call returns what the tree-walking
//     reference evaluator returns — value, or error class, function, line
//     and message — having charged the same number of steps.
//
// The seed corpus is the oracle's generated mirror programs (the exact
// sources the differential arm runs) plus hand-picked grammar edges.

import (
	"strings"
	"testing"

	"lakeharbor/internal/oracle"
	"lakeharbor/internal/script"
)

// fuzzHost satisfies every contract builtin the oracle's mirror programs
// call, so fuzzed evaluation reaches loop bodies instead of stopping at
// "unknown function".
func fuzzHost() map[string]script.Builtin {
	ok := func(args []script.Value) (script.Value, error) { return script.Int(0), nil }
	host := map[string]script.Builtin{}
	for _, name := range []string{"set", "emit", "emitbroadcast", "emitrange", "carry", "carrycomposite"} {
		host[name] = ok
	}
	return host
}

func FuzzScript(f *testing.F) {
	for _, src := range oracle.ScriptCorpus() {
		f.Add(src)
	}
	for _, src := range handSeeds {
		f.Add(src)
	}
	f.Add(script.Q5Source)
	for _, src := range edgeSeeds {
		f.Add(src)
	}

	lim := script.Limits{Steps: 5000, AllocBytes: 1 << 16}
	host := fuzzHost()
	f.Fuzz(func(t *testing.T, src string) {
		p, err := script.Compile(src)
		if err != nil {
			return // rejected inputs just need to not panic
		}

		// Property 3: canonical form is a fixed point of Compile.
		canon := p.Canonical()
		p2, err := script.Compile(canon)
		if err != nil {
			t.Fatalf("canonical form does not recompile: %v\nsource: %q\ncanonical: %q", err, src, canon)
		}
		if again := p2.Canonical(); again != canon {
			t.Fatalf("canonical form is not stable:\nfirst:  %q\nsecond: %q", canon, again)
		}

		// Properties 1, 2 and 4: call every declared function with every
		// arity-matching argument window; each call must return (budget at
		// worst), never hang, never panic, and agree with the reference
		// evaluator — which also makes every error a typed one.
		for _, fn := range p.Funcs() {
			n := p.Params(fn)
			for from := 0; from+n <= len(fuzzArgs); from++ {
				sameAsReference(t, p, fn, lim, host, fuzzArgs[from:from+n])
				if n == 0 {
					break // every window is the same empty one
				}
			}
		}
	})
}

// fuzzArgs is the pool argument windows are cut from.
var fuzzArgs = []script.Value{
	script.Str("7|3"), script.Str(""), script.Int(-1), script.Bool(true),
	script.Str("x\x00y"), script.Int(42), script.Str("|"), script.Int(0),
}

// TestFuzzCorpusRunsClean sanity-checks the seed corpus outside fuzzing
// mode: every oracle mirror program compiles, prints, and recompiles. This
// keeps `go test` (no -fuzz flag) covering the corpus on every CI run.
func TestFuzzCorpusRunsClean(t *testing.T) {
	corpus := oracle.ScriptCorpus()
	if len(corpus) == 0 {
		t.Fatal("oracle returned an empty script corpus")
	}
	for _, src := range corpus {
		p, err := script.Compile(src)
		if err != nil {
			t.Fatalf("mirror source does not compile: %v\n%s", err, src)
		}
		canon := p.Canonical()
		p2, err := script.Compile(canon)
		if err != nil {
			t.Fatalf("canonical mirror does not recompile: %v\n%s", err, canon)
		}
		if p2.Canonical() != canon {
			t.Fatalf("canonical mirror is unstable:\n%s", canon)
		}
		if !strings.Contains(canon, "fn keep") {
			t.Fatalf("mirror program lost its filter:\n%s", canon)
		}
	}
}
