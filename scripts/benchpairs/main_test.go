package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	if got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != [3]float64{3, 5.5, 8} {
		t.Fatalf("quartiles of 1..10 = %v, want [3 5.5 8]", got)
	}
	if got := quartiles([]float64{4}); got != [3]float64{4, 4, 4} {
		t.Fatalf("quartiles of one value = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Better: "lower", Bound: 0.05}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64, except ...int) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		for _, i := range except {
			out[i] = parent[i] + 50
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		spec   metricSpec
		want   string
	}{
		{"every run lower", shift(-10), lower, "better (every run)"},
		{"nine of ten lower", shift(-10, 3), lower, "better"},
		{"every run higher, higher is better", shift(10), metricSpec{Better: "higher"}, "better (every run)"},
		{"identical", parent, lower, "unchanged"},
		{"over bound", shift(+10), lower, "WORSE, over bound"},
		{"worse within bound", shift(+4), lower, "worse, within bound"},
		{"wins too few pairs", shift(-10, 3, 7), lower, "unresolved"},
		// The parent's quartiles (99–101) span more than a 1 % bound.
		{"spread wider than bound, median within it", shift(-0.5), metricSpec{Better: "lower", Bound: 0.01}, "unresolved"},
		{"spread wider than bound, runs overlap", shift(-3), metricSpec{Better: "lower", Bound: 0.01}, "unresolved"},
		{"spread wider than bound, every change run beats every parent run", shift(-5), metricSpec{Better: "lower", Bound: 0.01}, "better (every run)"},
		{"spread wider than bound, median worse beyond it", shift(+3), metricSpec{Better: "lower", Bound: 0.01}, "WORSE, over bound"},
	} {
		if c := compare(parent, tc.change, tc.spec); c.verdict != tc.want {
			t.Errorf("%s: verdict %q (wins %d), want %q", tc.name, c.verdict, c.wins, tc.want)
		}
	}
}

func TestReportTable(t *testing.T) {
	mk := func(v float64) result {
		r := result{Correct: true, Attempted: 10, Metrics: map[string]struct {
			Value float64 `json:"value"`
		}{}}
		r.Metrics["alloc_kb_per_job"] = struct {
			Value float64 `json:"value"`
		}{v}
		return r
	}
	var buf bytes.Buffer
	runs := [2][]result{{mk(110.6), mk(110.4)}, {mk(88.8), mk(88.9)}}
	if err := report(&buf, "q5_cpu seed 1", runs, map[string]metricSpec{"alloc_kb_per_job": {Better: "lower", Bound: 0.05}}); err != nil {
		t.Fatal(err)
	}
	want := "| `alloc_kb_per_job` | 110.5 [110.4–110.6] | 88.85 [88.80–88.90] | -19.6 % | 2/2 | 0.804 [0.803–0.805] | better (every run) |"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("table:\n%s\nwant the row\n%s", buf.String(), want)
	}
	if err := report(io.Discard, "q5_cpu seed 1", runs, map[string]metricSpec{"jobs_per_s": {Better: "higher"}}); err == nil {
		t.Fatal("report judged a metric BENCHMARK.json does not declare")
	}
	if num(1724.36) != "1 724" || num(-12345) != "-12 345" || num(0.41923) != "0.4192" || num(7.42) != "7.420" {
		t.Fatalf("num: %q %q %q %q", num(1724.36), num(-12345), num(0.41923), num(7.42))
	}
}

// TestReadSpecsOfThisRepo reads the repository's own BENCHMARK.json: every
// end-to-end and per-layer metric must come back with its direction and
// bound, or every higher-is-better verdict would be inverted.
func TestReadSpecsOfThisRepo(t *testing.T) {
	specs, err := readSpecs("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]metricSpec{
		"jobs_per_s":           {Name: "jobs_per_s", Better: "higher", Bound: 0.25},
		"alloc_kb_per_job":     {Name: "alloc_kb_per_job", Better: "lower", Bound: 0.05},
		"fig7.speedup_vs_scan": {Name: "fig7.speedup_vs_scan", Better: "higher"},
	} {
		if got := specs[name]; got != want {
			t.Errorf("%s: spec %+v, want %+v", name, got, want)
		}
	}
}
