package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "job", ID: 1, Start: 0, End: 100},
		// Two parallel tasks overlapping on [30, 40]: together they cover
		// [10, 60], which must count once.
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		// A child wholly inside another child's interval adds nothing.
		{Name: "c", ID: 4, Parent: 1, Start: 35, End: 38},
		// A task that outlives the job counts only up to the job's end.
		{Name: "d", ID: 5, Parent: 1, Start: 90, End: 130},
		// Grandchildren reduce their parent's self time, not the job's.
		{Name: "filter", ID: 6, Parent: 2, Start: 12, End: 20},
		{Name: "filter", ID: 7, Parent: 2, Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 100 - 50 - 10, // [10,60] and [90,100]
		2: 30 - 13,
		3: 30,
		4: 3,
		5: 40,
		6: 8,
		7: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerFoldsJobsAndWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	for j := 0; j < 3; j++ {
		jt := tr.newJob()
		root := jt.start(spanJob, 0)
		a := jt.start(spanDeref, root.id)
		f := jt.start(spanFilter, a.id)
		time.Sleep(time.Millisecond)
		f.end()
		a.end()
		rpc := jt.start(spanRPC, root.id)
		rpc.end()
		root.end()
		tr.finish(jt)
	}
	if tr.jobs != 3 || tr.count[spanFilter] != 3 || len(tr.samples[spanRPC]) != 3 {
		t.Fatalf("jobs %d, filter spans %d, rpc samples %d; want 3 each", tr.jobs, tr.count[spanFilter], len(tr.samples[spanRPC]))
	}
	if busy, self := tr.busyNs[spanDeref], tr.selfNs[spanDeref]; self >= busy || busy-self != tr.busyNs[spanFilter] {
		t.Errorf("deref busy %d, self %d, filter busy %d: self must be busy minus the filter", busy, self, tr.busyNs[spanFilter])
	}
	if got := tr.perJob(tr.count, spanFilter); got != 1 {
		t.Errorf("filter calls per job = %g, want 1", got)
	}

	// A nil jobTrace (an untraced run through wrapped code) records nothing.
	var none *jobTrace
	none.start(spanDeref, 0).end()

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Pid  int
			Tid  int
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 12 {
		t.Fatalf("%d trace events, want 12", len(doc.TraceEvents))
	}
	lanes := map[[2]int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args["job"] == nil || ev.Args["parent"] == nil {
			t.Errorf("event %+v lacks phase X or its job/parent", ev)
		}
		switch ev.Name {
		case spanJob:
			if ev.Tid != 0 {
				t.Errorf("job root on lane %d, want 0", ev.Tid)
			}
		case spanDeref:
			lanes[[2]int{ev.Pid, ev.Tid}] = spanDeref
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == spanFilter && lanes[[2]int{ev.Pid, ev.Tid}] != spanDeref {
			t.Errorf("filter span of job %d is on lane %d, not its parent deref's lane", ev.Pid, ev.Tid)
		}
	}
}
