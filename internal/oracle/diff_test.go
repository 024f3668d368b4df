package oracle

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

var (
	seedFlag = flag.Int64("oracle.seed", 1, "first seed for TestDifferential")
	nFlag    = flag.Int("oracle.n", 50, "number of seeded scenarios TestDifferential runs")
)

// TestDifferential is the acceptance gate: every seed's scenario must agree
// with the baseline scan at every point of the axes product, with zero
// row-set or invariant divergence, and the sweep must have hedged and
// dropped requests on the net plane. A failing seed prints a
// self-contained repro line.
func TestDifferential(t *testing.T) {
	ctx := context.Background()
	n := *nFlag
	if n < 50 {
		n = 50 // the acceptance criterion is >= 50 scenarios
	}
	if testing.Short() {
		n = 12
	}
	var sweep Sweep
	for i := 0; i < n; i++ {
		seed := *seedFlag + int64(i)
		rep, err := Run(ctx, seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if len(rep.Points) != 96 {
			t.Fatalf("seed %d ran %d points, want the whole product of 96", seed, len(rep.Points))
		}
		if rep.Diverged() {
			t.Errorf("seed %d diverged:\n  %s\n%s", seed, strings.Join(rep.Failures, "\n  "), rep.Repro())
		}
		sweep.Add(rep)
	}
	for _, f := range sweep.Failures() {
		t.Error(f)
	}
	t.Logf("%d seeds × 96 points: %d hedged attempts, %d transport drops, %d leaked connections",
		n, sweep.HedgeFires, sweep.Drops, sweep.LeakedConns)
}

// TestMutationsCaughtAtTheirPoints is the oracle's vacuity check: each row
// plants one deliberate bug and states where it must be caught. A point
// whose world runs the buggy code must report it at some seed, a point whose
// world does not must never blame it, and the divergence must shrink to
// the first catching point with the fault schedule of a chaos-independent
// bug shrunk to empty.
func TestMutationsCaughtAtTheirPoints(t *testing.T) {
	tailFlush := func(t *testing.T) {
		core.SetFailpoint(core.FailpointDropTailFlush, true)
		t.Cleanup(func() { core.SetFailpoint(core.FailpointDropTailFlush, false) })
	}
	for _, tc := range []struct {
		name   string
		plant  func(t *testing.T)
		axes   string
		caught func(Point) bool // the points that must catch it
		only   bool             // and no other point may diverge
	}{
		{"core tail-flush failpoint", tailFlush, "",
			func(p Point) bool { return p == Point{} || p == Point{dispatch: 1} }, false},
		{"core tail-flush failpoint under faults", tailFlush, "faults=on",
			func(p Point) bool { return p == Point{faults: 1} }, false},
		{"script <= weakened to <", func(*testing.T) {
			mutate.source = func(src string) string { return strings.Replace(src, "<=", "<", 1) }
		}, "", func(p Point) bool { return p.is(functions, "script") }, true},
		{"Spec Keys drops the val-0 entries", func(*testing.T) {
			mutate.spec = func(s *indexer.Spec) {
				keys := s.Keys
				s.Keys = func(rec lake.Record) ([]lake.Key, error) {
					ks, err := keys(rec)
					if len(ks) == 1 && ks[0] == keycodec.Int64(0) {
						return nil, err
					}
					return ks, err
				}
			}
		}, "", func(p Point) bool { return !p.is(structures, "hand-built") }, true},
		{"recovery without the WAL tail", func(*testing.T) { mutate.noTail = true },
			"", func(p Point) bool { return p.is(structures, "recovered") }, true},
		{"net mirror skips base partition 0", func(*testing.T) {
			mutate.skip = func(file string, part int) bool { return file == baseFile && part == 0 }
		}, "", func(p Point) bool { return p.is(plane, "net") }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.plant(t)
			t.Cleanup(func() { mutate = mutation{} })
			x, err := ParseAxes(tc.axes)
			if err != nil {
				t.Fatal(err)
			}
			var want []Point
			for _, p := range x.points() {
				if tc.caught(p) {
					want = append(want, p)
				}
			}
			caught := map[Point]bool{}
			seed := int64(1)
			// A row with must-not points runs at least three seeds, so they
			// face more than one generated form.
			for ; seed <= 40 && (len(caught) < len(want) || tc.only && seed <= 3); seed++ {
				rep, err := Run(context.Background(), seed, Options{Axes: x})
				if err != nil {
					t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
				}
				first := false
				for _, p := range rep.DivergedPoints {
					if tc.caught(p) {
						caught[p] = true
						first = first || p == want[0]
					} else if tc.only {
						t.Errorf("seed %d: %s diverged without the mutation on its path", seed, p)
					}
				}
				if !first {
					continue
				}
				if rep.MinPoint != want[0] {
					t.Errorf("seed %d: shrank to %s, want %s", seed, rep.MinPoint, want[0])
				}
				if want[0].is(faults, "on") && (rep.MinSchedule == nil || rep.MinSchedule.Events() != 0) {
					t.Errorf("seed %d: chaos-independent bug shrank to schedule %v, want the empty one", seed, rep.MinSchedule)
				}
				if !strings.Contains(rep.Repro(), "-seed "+fmt.Sprint(seed)+" -n 1 -axes "+want[0].String()) {
					t.Errorf("seed %d: repro does not name the minimal point:\n%s", seed, rep.Repro())
				}
			}
			for _, p := range want {
				if !caught[p] {
					t.Errorf("never caught at %s", p)
				}
			}
			t.Logf("caught at %d of %d points by seed %d", len(caught), len(want), seed-1)
		})
	}
}

// TestOracleCatchesInjectedExecutorBug plants a deliberate executor bug —
// the batcher drops its tail flush, silently stranding buffered pointers —
// and demands the oracle catch it at the reference point with a printed
// reproducing seed. This is the oracle's own smoke test: a differential
// harness that cannot see a dropped tail flush would be vacuous.
func TestOracleCatchesInjectedExecutorBug(t *testing.T) {
	core.SetFailpoint(core.FailpointDropTailFlush, true)
	t.Cleanup(func() { core.SetFailpoint(core.FailpointDropTailFlush, false) })

	x := mustAxes(t, Point{}.String())
	for seed := int64(1); seed <= 40; seed++ {
		rep, err := Run(context.Background(), seed, Options{Axes: x})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if !rep.Diverged() {
			continue
		}
		if rep.MinPoint != (Point{}) {
			t.Errorf("seed %d: shrank to %s, want the reference point", seed, rep.MinPoint)
		}
		if repro := rep.Repro(); !strings.Contains(repro, "seed="+fmt.Sprint(seed)) {
			t.Errorf("divergence report lacks a reproducing seed: %q", repro)
		}
		t.Logf("injected bug caught at seed %d:\n  %s\n%s", seed, strings.Join(rep.Failures, "\n  "), rep.Repro())
		return
	}
	t.Fatal("40 seeds ran with the tail-flush bug planted and the oracle caught nothing")
}

// TestOracleCatchesEarlyTraceRelease is the trace loan's vacuity check at
// the broadest gate: with the executor planted to release a job's trace
// before its dispatcher finishes, TestDifferential -short must fail loudly.
// The poison panics on a job's goroutine, which takes the whole test binary
// down, so the planted run is this test re-run as a child process.
func TestOracleCatchesEarlyTraceRelease(t *testing.T) {
	const child = "^TestOracleCatchesEarlyTraceRelease$/^planted$"
	if flag.Lookup("test.run").Value.String() == child {
		t.Run("planted", func(t *testing.T) {
			core.SetFailpoint(core.FailpointEarlyTraceRelease, true)
			TestDifferential(t)
		})
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run="+child, "-test.short", "-test.count=1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "Trace used after Release") {
		t.Fatalf("TestDifferential with the trace released early: err %v, want a panic naming the released trace; output:\n%s", err, out)
	}
	t.Logf("caught: %s", strings.SplitN(strings.TrimSpace(string(out)), "\n", 3)[0])
}

// TestChaosDivergenceShrinksToEmptySchedule pins the shrinker's diagnostic
// value: a divergence that does NOT depend on injected chaos (here, the
// planted tail-flush bug breaking the {sim, faults on} point too) must
// shrink to the empty schedule, telling the investigator the bug is
// chaos-independent.
func TestChaosDivergenceShrinksToEmptySchedule(t *testing.T) {
	core.SetFailpoint(core.FailpointDropTailFlush, true)
	t.Cleanup(func() { core.SetFailpoint(core.FailpointDropTailFlush, false) })

	chaosPoint := Point{faults: 1}
	x := mustAxes(t, chaosPoint.String())
	for seed := int64(1); seed <= 40; seed++ {
		rep, err := Run(context.Background(), seed, Options{Axes: x})
		if err != nil {
			t.Fatalf("seed %d: oracle harness failed: %v", seed, err)
		}
		if !rep.Diverged() {
			continue
		}
		if rep.MinPoint != chaosPoint {
			t.Fatalf("seed %d: shrank to %s, want %s", seed, rep.MinPoint, chaosPoint)
		}
		if rep.MinSchedule == nil {
			t.Fatalf("seed %d: the faults point diverged but no shrunk schedule was produced", seed)
		}
		if rep.MinSchedule.Events() != 0 {
			t.Fatalf("seed %d: chaos-independent bug shrank to %s, want empty schedule", seed, rep.MinSchedule)
		}
		return // one shrunk repro is enough
	}
	t.Fatal("40 seeds ran with the tail-flush bug planted and none tripped the faults point, so the shrinker was never exercised")
}

// mustAxes parses an -axes list or fails the test.
func mustAxes(t *testing.T, list string) Axes {
	t.Helper()
	x, err := ParseAxes(list)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestParseAxes pins the -axes grammar: terms on one axis add up, unnamed
// axes keep every value, a Point's String selects exactly that point, and
// unknown axes or values are rejected.
func TestParseAxes(t *testing.T) {
	for list, want := range map[string]int{
		"":                           96,
		"plane=net":                  48,
		"plane=net,functions=script": 24,
		"structures=managed, structures=recovered": 64,
		"plane=sim,plane=net,batch=1":              48,
	} {
		x, err := ParseAxes(list)
		if err != nil || len(x.points()) != want {
			t.Errorf("ParseAxes(%q) selects %d points, %v; want %d", list, len(x.points()), err, want)
		}
	}
	p := Point{1, 1, 2, 1, 1, 1}
	if x, err := ParseAxes(p.String()); err != nil || len(x.points()) != 1 || x.points()[0] != p {
		t.Errorf("ParseAxes(%q) = %v, %v; want exactly %v", p, x.points(), err, p)
	}
	for _, bad := range []string{"plane", "plane=tcp", "arms=net", "net", "plane=net,faults=maybe", "Plane=net"} {
		if _, err := ParseAxes(bad); err == nil {
			t.Errorf("ParseAxes(%q) accepted an unknown axis or value", bad)
		}
	}
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

// TestScriptCorpusCoversForms pins the fuzz seed corpus: it must contain
// mirror programs for every mirrorable function shape — filter-only
// (point/join keep), entry-ref, field-ref with routed and broadcast emits,
// and the index extractors.
func TestScriptCorpusCoversForms(t *testing.T) {
	corpus := ScriptCorpus()
	if len(corpus) < 3 {
		t.Fatalf("corpus holds %d distinct programs, want >= 3", len(corpus))
	}
	joined := strings.Join(corpus, "\n")
	for _, want := range []string{"fn keep", "fn ref", "fn partkey", "fn keys", "indexpart", "carry()"} {
		if !strings.Contains(joined, want) {
			t.Errorf("corpus never exercises %q", want)
		}
	}
}
