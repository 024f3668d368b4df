package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordJob records a fixed script into tr: every counter, every histogram,
// events past the ring's capacity, and reads through a NodeIO handed out.
func recordJob(tr *Trace, stages, nodes, events int) {
	for s := 0; s < stages; s++ {
		tr.TaskEnd(s, tr.TaskBegin(s))
		tr.AddEmits(s, 3+s)
		tr.AddRetry(s)
		tr.AddBatch(s, 7*(s+1))
		tr.AddBatchSplit(s)
		tr.AddError(s)
		tr.ObserveQueueWait(time.Duration(100 * (s + 1)))
	}
	for n := 0; n < nodes; n++ {
		tr.Enqueue(n, 4+n)
		tr.WorkerSpawned(n)
		io := tr.NodeIO(n)
		io.Observe(n%2 == 0)
		io.ObserveLatency(false, time.Duration(1000*(n+1)))
		io.ObserveLatency(true, time.Duration(5000*(n+1)))
		io.ObserveRPC(n%stages, tr.start, time.Duration(300*(n+1)))
	}
	for i := 0; i < events; i++ {
		tr.Mark(EvSplit, i%stages, i%nodes, i)
		tr.TaskEvent(i%stages, i%nodes, i, tr.start, time.Duration(i), time.Duration(2*i), i%64)
	}
}

// normalise zeroes what the wall clock decides, keeping every count.
func normalise(s *Snapshot) *Snapshot {
	s.Start, s.Elapsed = time.Time{}, 0
	for i := range s.Stages {
		s.Stages[i].Busy, s.Stages[i].Wall = 0, 0
	}
	s.Lat.Task = HistSnapshot{Count: s.Lat.Task.Count}
	for i := range s.Events {
		s.Events[i].TS = 0
	}
	return s
}

// TestLentTraceIsFresh: a job recorded into a Trace that an earlier, larger,
// tenanted, slow-task-logging job released snapshots exactly as it does on a
// Trace that never served a job — counters, all five histograms, events and
// drops, tenant and slow-task settings — once wall-clock values are zeroed.
func TestLentTraceIsFresh(t *testing.T) {
	stagesA := []StageInfo{{"a0", "deref"}, {"a1", "ref"}, {"a2", "deref"}}
	stagesB := []StageInfo{{"b0", "deref"}, {"b1", "ref"}}
	var logged sync.Map
	for round := 0; round < 3; round++ {
		a := New("a", stagesA, 5)
		a.SetTenant("acme")
		a.SetSlowTask(time.Nanosecond, func(format string, args ...any) { logged.Store(args[0], true) })
		a.EnableEvents(0)
		recordJob(a, len(stagesA), 5, 900) // 1 805 events: the ring grows to 2 048, and is kept
		a.Release()

		logged = sync.Map{}
		b := New("b", stagesB, 3)
		b.EnableEvents(64)
		recordJob(b, len(stagesB), 3, 100)
		got := normalise(b.Snapshot(nil))
		b.Release()

		for traces.Get() != nil { // empty the pool: New starts from nothing
		}
		fresh := New("b", stagesB, 3)
		fresh.EnableEvents(64)
		recordJob(fresh, len(stagesB), 3, 100)
		want := normalise(fresh.Snapshot(nil))

		t.Logf("round %d: the second job reused the first's trace: %v", round, a == b)
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"job and tenant", [2]string{got.Job, got.Tenant}, [2]string{want.Job, want.Tenant}},
			{"stages", got.Stages, want.Stages},
			{"nodes", got.Nodes, want.Nodes},
			{"latencies", got.Lat, want.Lat},
			{"events", got.Events, want.Events},
			{"events dropped", got.EventsDropped, want.EventsDropped},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("round %d: %s on a lent trace:\n%+v\nfresh:\n%+v", round, f.name, f.got, f.want)
			}
		}
		if got.EventsDropped == 0 || got.Stages[0].SlowTasks != 0 {
			t.Errorf("round %d: %d events dropped, %d slow tasks", round, got.EventsDropped, got.Stages[0].SlowTasks)
		}
		if _, ok := logged.Load("b"); ok {
			t.Errorf("round %d: the second job's tasks were logged as slow under the first's threshold", round)
		}
	}
}

// TestLentTraceRingKept: a released trace keeps an event ring a recent job
// grew, up to eventRingKeep events, and lets a larger one go.
func TestLentTraceRingKept(t *testing.T) {
	for _, events := range []int{1800, 3000} { // the ring grows to 2 048 events, then to 4 096
		tr := New("ring", []StageInfo{{"s", "deref"}}, 1)
		tr.EnableEvents(0)
		for i := 0; i < events; i++ {
			tr.Mark(EvRetry, 0, 0, i)
		}
		grown := cap(tr.ring.buf)
		tr.Release()
		want := 0 // a ring past eventRingKeep is let go
		if grown <= eventRingKeep {
			want = grown
		}
		if kept := cap(tr.ring.buf); kept != want || len(tr.ring.buf) != 0 {
			t.Errorf("%d events: ring grew to %d, %d kept holding %d events, want %d kept empty",
				events, grown, kept, len(tr.ring.buf), want)
		}
	}
}

// TestReleasedTracePanics: in a test binary every use of a released trace —
// recording, through a NodeIO it handed out, snapshotting, releasing again —
// panics with a message naming the job.
func TestReleasedTracePanics(t *testing.T) {
	for name, use := range map[string]func(*Trace, *NodeIO){
		"TaskBegin":      func(tr *Trace, _ *NodeIO) { tr.TaskBegin(0) },
		"AddEmits":       func(tr *Trace, _ *NodeIO) { tr.AddEmits(0, 1) },
		"Mark":           func(tr *Trace, _ *NodeIO) { tr.Mark(EvRetry, 0, 0, 0) },
		"Enqueue":        func(tr *Trace, _ *NodeIO) { tr.Enqueue(0, 1) },
		"NodeIO.Observe": func(_ *Trace, io *NodeIO) { io.Observe(true) },
		"NodeIO.Latency": func(_ *Trace, io *NodeIO) { io.ObserveLatency(false, time.Millisecond) },
		"Snapshot":       func(tr *Trace, _ *NodeIO) { tr.Snapshot(nil) },
		"Release":        func(tr *Trace, _ *NodeIO) { tr.Release() },
	} {
		tr := New("released-"+name, []StageInfo{{"s", "deref"}}, 1)
		tr.EnableEvents(0)
		io := tr.NodeIO(0)
		tr.Release()
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "released-"+name) || !strings.Contains(msg, "after Release") {
					t.Errorf("%s on a released trace: recovered %q, want a panic naming the job", name, msg)
				}
			}()
			use(tr, io)
		}()
		traces.Get() // the released trace, if the pool kept it: no later test gets it marked
	}
}
