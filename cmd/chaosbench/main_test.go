package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lakeharbor/internal/oracle"
	"lakeharbor/internal/trace"
)

func TestWriteArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "oracle-artifacts")
	point := oracle.Point{1, 1, 2, 1, 1, 1}
	rep := &oracle.Report{
		Seed:           99,
		Desc:           "2 nodes, join",
		Failures:       []string{"[" + point.String() + "] job: 1 row(s) missing"},
		DivergedPoints: []oracle.Point{point},
		MinPoint:       point,
		DivergedTrace: &trace.Snapshot{
			Job: "oracle-job",
			Events: []trace.Event{
				{Kind: trace.EvTask, Stage: 0, Node: 0, TS: 0, Dur: 100},
			},
		},
	}
	writeArtifacts(dir, rep)

	repro, err := os.ReadFile(filepath.Join(dir, "chaos_repro_seed99.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seed=99", "1 row(s) missing",
		"minimal point: plane=net,functions=script,structures=recovered,faults=on,dispatch=sched,batch=1",
		"-seed 99 -n 1 -axes plane=net,functions=script,structures=recovered,faults=on,dispatch=sched,batch=1"} {
		if !strings.Contains(string(repro), want) {
			t.Errorf("repro file missing %q:\n%s", want, repro)
		}
	}
	tl, err := os.ReadFile(filepath.Join(dir, "chaos_timeline_seed99.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tl, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}

	// Without a trace (the point failed before producing one), only the repro
	// file is written.
	rep.DivergedTrace = nil
	rep.Seed = 100
	writeArtifacts(dir, rep)
	if _, err := os.Stat(filepath.Join(dir, "chaos_repro_seed100.txt")); err != nil {
		t.Error("repro file missing for trace-less divergence")
	}
	if _, err := os.Stat(filepath.Join(dir, "chaos_timeline_seed100.json")); err == nil {
		t.Error("timeline written despite nil trace")
	}
}
