package oracle

import (
	"context"
	"strings"
	"testing"
)

// TestNetArmMatchesSim: the scenario mirrored onto real loopback lakenode
// servers — the {net} points, run clean and under the seed's armed fault
// schedule — must match the sim answers over >= 30 seeds, with at least one
// hedged request and one fired fault observed across the sweep and zero
// leaked connections after every pool drain.
func TestNetArmMatchesSim(t *testing.T) {
	n := 35
	if testing.Short() {
		n = 10
	}
	x := mustAxes(t, "plane=net,functions=compiled,structures=hand-built,dispatch=pool,batch=drawn")
	var sweep Sweep
	for i := 0; i < n; i++ {
		seed := int64(1000 + i)
		rep, err := Run(context.Background(), seed, Options{Axes: x})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if len(rep.Points) != 2 {
			t.Fatalf("seed %d ran %v, want the net points clean and under faults", seed, rep.Points)
		}
		if rep.Diverged() {
			t.Errorf("seed %d diverged:\n  %s\n%s", seed, strings.Join(rep.Failures, "\n  "), rep.Repro())
		}
		if rep.NetLeakedConns != 0 {
			t.Errorf("seed %d leaked %d connections after pool drain", seed, rep.NetLeakedConns)
		}
		sweep.Add(rep)
	}
	for _, f := range sweep.Failures() {
		t.Error(f)
	}
	t.Logf("net points: %d seeds, %d hedged attempts, %d faults fired", n, sweep.HedgeFires, sweep.FaultsFired[1])
}
