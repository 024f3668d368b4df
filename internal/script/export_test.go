package script

// Helpers only tests call, and hooks for the external (script_test) test
// files, which must live outside the package because they import
// internal/oracle. The canonical printer (print_test.go) is test apparatus
// the same way: its one job is the Compile ∘ Canonical fixed-point property.

// MustCompile is Compile for sources known good.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Params returns the parameter count of fn (-1 when undeclared).
func (p *Program) Params(fn string) int {
	d, ok := p.fns[fn]
	if !ok {
		return -1
	}
	return len(d.params)
}

// RefCall is the reference evaluator's entry point (reference_test.go).
var RefCall = (*Program).refCall

// Q5Source is the Q5′ mirror the allocation budgets and benchmarks run.
const Q5Source = q5Source
