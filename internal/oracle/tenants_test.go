package oracle

import (
	"context"
	"strings"
	"testing"

	"lakeharbor/internal/core"
)

// tenantPoints are the sim points that run each scenario as a 9:3:1
// three-tenant mix on one shared weighted-fair scheduler, clean and under
// armed chaos.
const tenantPoints = "plane=sim,functions=compiled,structures=hand-built,dispatch=sched,batch=drawn"

// TestTenantsArmMatchesSingle: the tenant mix must match the single-tenant
// answers over >= 30 seeds, with the over-quota tenant rejected at
// admission, no admitted job starving, weighted shares within the stated
// bound whenever a mix produced a real contention window, and the
// scheduler draining to zero every time.
func TestTenantsArmMatchesSingle(t *testing.T) {
	n := 35
	if testing.Short() {
		n = 10
	}
	x := mustAxes(t, tenantPoints)
	for i := 0; i < n; i++ {
		seed := int64(2000 + i)
		rep, err := Run(context.Background(), seed, Options{Axes: x})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if len(rep.Points) != 2 {
			t.Fatalf("seed %d ran %v, want the tenant mix clean and under faults", seed, rep.Points)
		}
		if rep.Diverged() {
			t.Errorf("seed %d diverged:\n  %s\n%s", seed, strings.Join(rep.Failures, "\n  "), rep.Repro())
		}
	}
}

// TestTenantsArmCatchesInjectedBug points the tenant mix at the planted
// tail-flush executor bug: a mix that cannot detect a wrong answer from one
// of its tenants would make the whole dispatch axis vacuous.
func TestTenantsArmCatchesInjectedBug(t *testing.T) {
	core.SetFailpoint(core.FailpointDropTailFlush, true)
	t.Cleanup(func() { core.SetFailpoint(core.FailpointDropTailFlush, false) })

	tenantPoint := Point{dispatch: 1}
	x := mustAxes(t, tenantPoint.String())
	for seed := int64(1); seed <= 40; seed++ {
		rep, err := Run(context.Background(), seed, Options{Axes: x})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if rep.Diverged() {
			if rep.MinPoint != tenantPoint {
				t.Errorf("seed %d: shrank to %s, want %s", seed, rep.MinPoint, tenantPoint)
			}
			t.Logf("injected bug caught by the tenant mix at seed %d:\n  %s", seed, strings.Join(rep.Failures, "\n  "))
			return
		}
	}
	t.Fatal("40 seeds ran with the tail-flush bug planted and the tenant mix caught nothing")
}
