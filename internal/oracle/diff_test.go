package oracle

import (
	"context"
	"flag"
	"strings"
	"testing"

	"lakeharbor/internal/core"
)

var (
	seedFlag = flag.Int64("oracle.seed", 1, "first seed for TestDifferential")
	nFlag    = flag.Int("oracle.n", 60, "number of seeded scenarios TestDifferential runs")
)

// TestDifferential is the acceptance gate: every seed's scenario must agree
// across all nine arms — clean batched, clean unbatched, chaos, networked
// data plane, multi-tenant mix, scripted access methods, lifecycle,
// crash-recovery restart, baseline — with zero row-set or invariant
// divergence. A failing seed prints a self-contained repro line.
func TestDifferential(t *testing.T) {
	ctx := context.Background()
	n := *nFlag
	if n < 50 {
		n = 50 // the acceptance criterion is >= 50 scenarios
	}
	if testing.Short() {
		n = 12
	}
	for i := 0; i < n; i++ {
		seed := *seedFlag + int64(i)
		rep, err := Run(ctx, seed, Options{Chaos: true, Shrink: true, Lifecycle: true, Restart: true, Net: true, Tenants: true, Script: true})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if rep.Diverged() {
			t.Errorf("seed %d diverged:\n  %s\n%s",
				seed, strings.Join(rep.Failures, "\n  "), rep.Repro())
		}
	}
}

// TestOracleCatchesInjectedExecutorBug plants a deliberate executor bug —
// the batcher drops its tail flush, silently stranding buffered pointers —
// and demands the oracle catch it with a printed reproducing seed. This is
// the oracle's own smoke test: a differential harness that cannot see a
// dropped tail flush would be vacuous.
func TestOracleCatchesInjectedExecutorBug(t *testing.T) {
	core.SetFailpoint(core.FailpointDropTailFlush, true)
	t.Cleanup(func() { core.SetFailpoint(core.FailpointDropTailFlush, false) })

	ctx := context.Background()
	caught := 0
	for seed := int64(1); seed <= 40 && caught == 0; seed++ {
		// Chaos off: the planted bug is in the clean batched arm; the
		// chaos arm would only add noise to the repro.
		rep, err := Run(ctx, seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if !rep.Diverged() {
			continue
		}
		caught++
		repro := rep.Repro()
		if !strings.Contains(repro, "seed=") {
			t.Errorf("divergence report lacks a reproducing seed: %q", repro)
		}
		t.Logf("injected bug caught at seed %d:\n  %s\n%s",
			seed, strings.Join(rep.Failures, "\n  "), repro)
	}
	if caught == 0 {
		t.Fatal("40 seeds ran with the tail-flush bug planted and the oracle caught nothing")
	}
}

// TestChaosDivergenceShrinksToEmptySchedule pins the shrinker's diagnostic
// value: a divergence that does NOT depend on injected chaos (here, the
// planted tail-flush bug breaking the chaos arm too) must shrink to the
// empty schedule, telling the investigator the bug is chaos-independent.
func TestChaosDivergenceShrinksToEmptySchedule(t *testing.T) {
	core.SetFailpoint(core.FailpointDropTailFlush, true)
	t.Cleanup(func() { core.SetFailpoint(core.FailpointDropTailFlush, false) })

	ctx := context.Background()
	for seed := int64(1); seed <= 40; seed++ {
		rep, err := Run(ctx, seed, Options{Chaos: true, Shrink: true})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		chaosDiverged := false
		for _, f := range rep.Failures {
			if strings.HasPrefix(f, "smpe-chaos:") {
				chaosDiverged = true
			}
		}
		if !chaosDiverged {
			continue
		}
		if rep.MinSchedule == nil {
			t.Fatalf("seed %d: chaos arm diverged but no shrunk schedule was produced", seed)
		}
		if rep.MinSchedule.Events() != 0 {
			t.Fatalf("seed %d: chaos-independent bug shrank to %s, want empty schedule",
				seed, rep.MinSchedule)
		}
		return // one shrunk repro is enough
	}
	t.Fatal("40 seeds ran with the tail-flush bug planted and none tripped the chaos arm, so the shrinker was never exercised")
}

// TestGenerateDeterministic: the scenario generator is as reproducible as
// the chaos compiler — same seed, same job shape, same expected answer.
func TestGenerateDeterministic(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 10; seed++ {
		a, err := generate(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.desc != b.desc {
			t.Fatalf("seed %d: desc %q vs %q", seed, a.desc, b.desc)
		}
		if len(a.expected) != len(b.expected) || a.expectedCount != b.expectedCount {
			t.Fatalf("seed %d: expected answers differ between generations", seed)
		}
		for k, v := range a.expected {
			if b.expected[k] != v {
				t.Fatalf("seed %d: expected multiset differs at %q", seed, k)
			}
		}
	}
}

// TestScenarioCoverage checks the generator actually exercises all four job
// forms and both clean/priced cost models across a modest seed range — a
// generator collapsed to one shape would quietly gut the oracle.
func TestScenarioCoverage(t *testing.T) {
	ctx := context.Background()
	forms := map[string]bool{}
	costs := map[string]bool{}
	for seed := int64(1); seed <= 60; seed++ {
		sc, err := generate(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		forms[sc.job.Name] = true
		for _, part := range strings.Fields(sc.desc) {
			if strings.HasPrefix(part, "cost=") {
				costs[part] = true
			}
		}
	}
	for _, want := range []string{"point", "local-range", "global-range", "join"} {
		if !forms[want] {
			t.Errorf("60 seeds never generated form %q (got %v)", want, forms)
		}
	}
	if len(costs) != 2 {
		t.Errorf("60 seeds covered cost models %v, want both free and priced", costs)
	}
}
