package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs all six workloads — interleaved untraced repetitions, then
// each traced run with its probes — through the code path the real
// benchmark takes, at -smoke sizes. It measures nothing; it checks that
// every workload sets up, returns verified answers, and reports every
// declared metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads end to end")
	}
	sz := smokeSizes
	out := t.TempDir()
	sz.Scratch = filepath.Join(out, "scratch")
	start := time.Now()
	runs, err := suite(context.Background(), workloads, 1, sz, 300*time.Millisecond, -1, out)
	if err != nil {
		t.Fatal(err)
	}
	// About 10 s on two cores, four times that under the race detector.
	t.Logf("smoke suite took %v", time.Since(start))
	if len(runs) != len(workloads) {
		t.Fatalf("%d runs for %d workloads", len(runs), len(workloads))
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	reported := map[string]bool{}
	for _, d := range runs {
		attempted, failed, failures := tally(d)
		if attempted == 0 || failed != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", d.name, attempted, failed, failures)
		}
		if r := result(d, 0); !r.Correct {
			t.Errorf("%s: end-to-end result not correct: %v", d.name, r)
		}
		for name, v := range endToEndValues(d) {
			if v.v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g; every workload must report every one, non-zero", d.name, name, v.v)
			}
		}
		if r := result(d, 1); !r.Correct || len(r.Metrics) != len(perLayer) {
			t.Errorf("%s: per-layer result incomplete or incorrect", d.name)
		}
		for name, v := range d.perLayer {
			if !declared[name] {
				t.Errorf("%s reports undeclared per-layer metric %s", d.name, name)
			}
			if v != 0 {
				reported[name] = true
			}
		}
		if st, err := os.Stat(filepath.Join(out, "spans-"+d.name+".json")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file written: %v", d.name, err)
		}
		for _, n := range d.notes {
			t.Logf("%s: note: %s", d.name, n)
		}
	}
	// Some workload must produce each declared per-layer metric. Counters
	// that are legitimately zero on a healthy run are exempt.
	zeroOK := map[string]bool{
		"core.retries_per_job": true, "trace.events_dropped_per_job": true,
		"nodenet.open_conns_after_close": true, "nodenet.hedge_fire_ratio": true, "nodenet.hedge_win_ratio": true,
		"sched.share_err": true, "trace.timeline_cost_pct": true,
	}
	for _, m := range perLayer {
		if !reported[m.Name] && !zeroOK[m.Name] {
			t.Errorf("no workload reported per-layer metric %s", m.Name)
		}
	}
	if left, _ := os.ReadDir(sz.Scratch); len(left) != 0 {
		t.Errorf("scratch directory not emptied: %d entries left", len(left))
	}
}

// TestManifestAndReadmeMatchTheDeclarations keeps the three descriptions of
// the benchmark — the metric tables in metrics.go, BENCHMARK.json at the
// repository root and the README — from drifting apart.
func TestManifestAndReadmeMatchTheDeclarations(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read the committed manifest: %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("BENCHMARK.json differs from `lakebench -manifest`; regenerate it")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.Contains(string(readme), "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not mention metric %s", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
