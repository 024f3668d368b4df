package oracle

import (
	"context"
	"strings"
	"testing"
)

// scriptPoints are the sim points whose access methods are mirror scripts,
// over every structures value, so the scripted-built indexes answer too.
const scriptPoints = "plane=sim,functions=script,faults=off,dispatch=pool,batch=drawn"

// TestScriptArmMatchesCompiled is the scripted ≡ compiled acceptance sweep:
// across 30 seeds every scenario's mirror script must compile and run to the
// oracle answer with per-stage emits identical to the compiled reference
// point's, whichever way its structures were built.
func TestScriptArmMatchesCompiled(t *testing.T) {
	n := int64(30)
	if testing.Short() {
		n = 10
	}
	x := mustAxes(t, scriptPoints)
	for seed := int64(1); seed <= n; seed++ {
		rep, err := Run(context.Background(), seed, Options{Axes: x})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if rep.Diverged() {
			t.Errorf("seed %d diverged:\n  %s\n%s", seed, strings.Join(rep.Failures, "\n  "), rep.Repro())
		}
	}
}

// TestScriptArmCatchesInjectedBug is the vacuity check: a one-token
// mutation in the generated mirror script — the filter's first `<=`
// weakened to `<`, dropping boundary rows — must be reported at the script
// point, and only there: the compiled reference point beside it runs no
// script and must keep agreeing.
func TestScriptArmCatchesInjectedBug(t *testing.T) {
	mutate.source = func(src string) string {
		i := strings.Index(src, "<=")
		if i < 0 {
			t.Fatalf("mirror source has no <= to mutate:\n%s", src)
		}
		return src[:i] + "<" + src[i+2:]
	}
	t.Cleanup(func() { mutate = mutation{} })

	scriptPoint := Point{functions: 1}
	x := mustAxes(t, "plane=sim,structures=hand-built,faults=off,dispatch=pool,batch=drawn")
	for seed := int64(1); seed <= 40; seed++ {
		rep, err := Run(context.Background(), seed, Options{Axes: x})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if !rep.Diverged() {
			continue // this seed's answer has no boundary row; try the next
		}
		if len(rep.DivergedPoints) != 1 || rep.DivergedPoints[0] != scriptPoint {
			t.Errorf("seed %d: diverged at %v, want only %s", seed, rep.DivergedPoints, scriptPoint)
		}
		t.Logf("injected script bug caught at seed %d:\n  %s", seed, strings.Join(rep.Failures, "\n  "))
		return
	}
	t.Fatal("40 seeds ran with the <= mutation planted and the script points caught nothing")
}
