package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// newEventRing is an empty ring retaining up to capacity events.
func newEventRing(capacity int) *EventRing { return &EventRing{limit: capacity} }

func TestEventRingBounded(t *testing.T) {
	r := newEventRing(4)
	for i := 0; i < 10; i++ {
		r.Add(Event{Kind: EvTask, TS: int64(i)})
	}
	evs, dropped := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	// The newest 4 events survive, in arrival order.
	for i, ev := range evs {
		if want := int64(6 + i); ev.TS != want {
			t.Fatalf("event %d has TS %d, want %d", i, ev.TS, want)
		}
	}
}

func TestEventRingConcurrent(t *testing.T) {
	r := newEventRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(Event{Kind: EvTask, Node: int32(g), TS: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	evs, dropped := r.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("ring holds %d events, want 64", len(evs))
	}
	if got := int64(len(evs)) + dropped; got != 8*500 {
		t.Fatalf("retained + dropped = %d, want %d", got, 8*500)
	}
}

// timelineSnapshot is the fixed event log the Chrome-export and
// critical-path tests share: two nodes, two stages, with a queue-heavy
// phase on node 1 (its task was enqueued at 50 ns).
func timelineSnapshot() *Snapshot {
	return &Snapshot{
		Job: "golden",
		Stages: []StageSnapshot{
			{Stage: 0, Name: "deref"},
			{Stage: 1, Name: "ref"},
		},
		Nodes: []NodeSnapshot{{Node: 0}, {Node: 1}},
		Events: []Event{
			{Kind: EvTask, Stage: 0, Node: 0, Worker: 0, TS: 0, Dur: 100, Ptrs: 4},
			{Kind: EvRetry, Stage: 0, Node: 0, TS: 60},
			{Kind: EvSplit, Stage: 0, Node: 0, TS: 70, Ptrs: 8},
			{Kind: EvTask, Stage: 1, Node: 1, Worker: 1, TS: 200, Dur: 300, Wait: 150},
		},
		EventsDropped: 3,
	}
}

const goldenChromeTrace = `{"displayTimeUnit":"ms","otherData":{"eventsDropped":3,"job":"golden"},"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"node 0"}},{"name":"enqueue s0 deref","cat":"enqueue","ph":"i","ts":0,"pid":0,"tid":0,"s":"t","args":{"stage":0}},{"name":"s0 deref","cat":"task","ph":"X","ts":0,"dur":0.1,"pid":0,"tid":0,"args":{"ptrs":4,"queueWaitUs":0,"stage":0}},{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"node 1"}},{"name":"enqueue s1 ref","cat":"enqueue","ph":"i","ts":0.05,"pid":1,"tid":1,"s":"t","args":{"stage":1}},{"name":"retry s0 deref","cat":"retry","ph":"i","ts":0.06,"pid":0,"tid":0,"s":"t","args":{"ptrs":0,"stage":0}},{"name":"split s0 deref","cat":"split","ph":"i","ts":0.07,"pid":0,"tid":0,"s":"t","args":{"ptrs":8,"stage":0}},{"name":"s1 ref","cat":"task","ph":"X","ts":0.2,"dur":0.3,"pid":1,"tid":1,"args":{"ptrs":0,"queueWaitUs":0.15,"stage":1}}]}
`

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := timelineSnapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenChromeTrace {
		t.Fatalf("Chrome trace drifted from golden.\ngot:  %s\nwant: %s", got, goldenChromeTrace)
	}
}

func TestWriteChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := timelineSnapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The export must be a valid Chrome trace container: a JSON object with
	// a traceEvents array whose entries all carry a phase.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents in export")
	}
	phases := map[string]int{}
	for i, ev := range doc.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event %d has no phase: %v", i, ev)
		}
		phases[ph]++
	}
	// Two tasks and their two derived enqueues, one retry, one split.
	if phases["X"] != 2 || phases["i"] != 4 || phases["M"] != 2 {
		t.Fatalf("phase counts = %v, want 2 X, 4 i, 2 M", phases)
	}
	if got := doc.OtherData["eventsDropped"]; got != float64(3) {
		t.Fatalf("otherData.eventsDropped = %v, want 3", got)
	}
}

func TestCriticalPathHandBuilt(t *testing.T) {
	// Hand-built log (times in ns):
	//
	//	stage 0 / node 0: three overlapping tasks covering [0, 100)
	//	stage 1 / node 1: one task executing [100, 160), having queued
	//	                  during [40, 100)
	//	idle gap [160, 200), then stage 1 / node 1 again [200, 230)
	//
	// Expected segments: s0n0 exec [0,100) wins its span (3 tasks beats the
	// single queued task), s1n1 exec [100,160), then after the gap s1n1
	// exec [200,230).
	events := []Event{
		{Kind: EvTask, Stage: 0, Node: 0, TS: 0, Dur: 80},
		{Kind: EvTask, Stage: 0, Node: 0, TS: 10, Dur: 80},
		{Kind: EvTask, Stage: 0, Node: 0, TS: 20, Dur: 80},
		{Kind: EvTask, Stage: 1, Node: 1, TS: 100, Dur: 60, Wait: 60},
		{Kind: EvTask, Stage: 1, Node: 1, TS: 200, Dur: 30},
		// Non-task events must be ignored by the extractor.
		{Kind: EvSplit, Stage: 1, Node: 1, TS: 40, Ptrs: 2},
	}
	segs := CriticalPath(events, 10)
	want := []CritSegment{
		{Stage: 0, Node: 0, Phase: "exec", Start: 0, End: 100, Span: 100, Tasks: 3},
		{Stage: 1, Node: 1, Phase: "exec", Start: 100, End: 160, Span: 60, Tasks: 1},
		{Stage: 1, Node: 1, Phase: "exec", Start: 200, End: 230, Span: 30, Tasks: 1},
	}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments %+v, want %d", len(segs), segs, len(want))
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

func TestCriticalPathQueuePhase(t *testing.T) {
	// A task whose wait dwarfs every execution: the queue phase must win
	// its span and be labeled as such.
	events := []Event{
		{Kind: EvTask, Stage: 0, Node: 2, TS: 1000, Dur: 50, Wait: 900},
	}
	segs := CriticalPath(events, 1)
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	s := segs[0]
	if s.Phase != "queue" || s.Stage != 0 || s.Node != 2 || s.Span != 900 {
		t.Fatalf("segment = %+v, want queue s0 n2 span 900", s)
	}
}

func TestCriticalPathTaskInRPCCountsAsRPC(t *testing.T) {
	// Two tasks on stage 0 / node 0 over [0, 100): one waits on a round trip
	// during [10, 90), the other computes. Over [10, 90) one task is on the
	// wire and one executing — the tie goes to rpc; counting the waiting
	// task as executing too would hand the whole span to exec.
	events := []Event{
		{Kind: EvTask, Stage: 0, Node: 0, TS: 0, Dur: 100},
		{Kind: EvTask, Stage: 0, Node: 0, TS: 0, Dur: 100},
		{Kind: EvRPC, Stage: 0, Node: 0, TS: 10, Dur: 80},
	}
	segs := CriticalPath(events, 1)
	if len(segs) != 1 || segs[0].Phase != "rpc" || segs[0].Start != 10 || segs[0].End != 90 {
		t.Fatalf("longest segment = %+v, want rpc [10, 90)", segs)
	}
}

func TestCriticalPathQueueWeighsBelowWire(t *testing.T) {
	// Six tasks of stage 0 / node 0 queue over [0, 1000) behind the one task
	// of stage 1 / node 1 that runs over [100, 900), on the wire during
	// [200, 800). The running task holds the job open while it runs, and its
	// round trip is the longest pole; a sweep that counted the queue by its
	// length would name queue s0 n0 for the whole job.
	events := []Event{{Kind: EvTask, Stage: 1, Node: 1, TS: 100, Dur: 800}, {Kind: EvRPC, Stage: 1, Node: 1, TS: 200, Dur: 600}}
	for i := 0; i < 6; i++ {
		events = append(events, Event{Kind: EvTask, Stage: 0, Node: 0, TS: 1000, Dur: 10, Wait: 1000})
	}
	segs := CriticalPath(events, 10)
	want := []CritSegment{
		{Stage: 1, Node: 1, Phase: "rpc", Start: 200, End: 800, Span: 600, Tasks: 1},
		{Stage: 0, Node: 0, Phase: "queue", Start: 0, End: 100, Span: 100, Tasks: 6},
		{Stage: 1, Node: 1, Phase: "exec", Start: 100, End: 200, Span: 100, Tasks: 1},
		{Stage: 1, Node: 1, Phase: "exec", Start: 800, End: 900, Span: 100, Tasks: 1},
		{Stage: 0, Node: 0, Phase: "queue", Start: 900, End: 1000, Span: 100, Tasks: 6},
		{Stage: 0, Node: 0, Phase: "exec", Start: 1000, End: 1010, Span: 10, Tasks: 6},
	}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments %+v, want %d", len(segs), segs, len(want))
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

func TestCriticalPathTopK(t *testing.T) {
	var events []Event
	for i := 0; i < 8; i++ {
		// Disjoint tasks with growing durations on distinct stages.
		events = append(events, Event{
			Kind: EvTask, Stage: int32(i), Node: 0,
			TS: int64(i * 1000), Dur: int64(10 * (i + 1)),
		})
	}
	segs := CriticalPath(events, 3)
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	// Longest first: durations 80, 70, 60.
	for i, wantSpan := range []int64{80, 70, 60} {
		if segs[i].Span != wantSpan {
			t.Fatalf("segment %d span = %d, want %d (%+v)", i, segs[i].Span, wantSpan, segs)
		}
	}
	if segs := CriticalPath(events, 0); segs != nil {
		t.Fatalf("k=0 returned %+v", segs)
	}
	if segs := CriticalPath(nil, 5); segs != nil {
		t.Fatalf("empty log returned %+v", segs)
	}
}

func TestCriticalPathDeterministicTies(t *testing.T) {
	// Two equal-weight attributions over the same interval: exec beats
	// queue, then the lower stage wins. Run twice to catch map-order flake.
	events := []Event{
		{Kind: EvTask, Stage: 2, Node: 0, TS: 0, Dur: 100},
		{Kind: EvTask, Stage: 1, Node: 1, TS: 0, Dur: 100},
		{Kind: EvTask, Stage: 0, Node: 2, TS: 200, Dur: 100, Wait: 100},
		{Kind: EvTask, Stage: 3, Node: 3, TS: 100, Dur: 100},
	}
	for trial := 0; trial < 2; trial++ {
		segs := CriticalPath(events, 10)
		if len(segs) == 0 {
			t.Fatal("no segments")
		}
		for _, s := range segs {
			if s.Start == 0 && (s.Stage != 1 || s.Phase != "exec") {
				t.Fatalf("tie at t=0 resolved to %+v, want stage 1 exec", s)
			}
			if s.Start == 100 && s.End == 200 && s.Phase != "exec" {
				// [100,200): stage 3 exec vs stage 0 queue — exec wins.
				t.Fatalf("tie at t=100 resolved to %+v, want exec", s)
			}
		}
	}
}

func TestChromeTraceRoundTripsThroughRing(t *testing.T) {
	// Events that passed through an overflowing ring still export cleanly.
	r := newEventRing(2)
	for i := 0; i < 5; i++ {
		r.Add(Event{Kind: EvTask, Stage: 0, Node: 0, TS: int64(i * 10), Dur: 5})
	}
	evs, dropped := r.Snapshot()
	s := &Snapshot{Job: fmt.Sprintf("ring-%d", dropped), Events: evs, EventsDropped: dropped}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
}
