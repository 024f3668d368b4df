package core

import (
	"fmt"
	"strings"
	"testing"

	"lakeharbor/internal/chaos"
	"lakeharbor/internal/trace"
)

// TestLatencyHistogramsPopulated: every executed task must land exactly one
// observation in the task-latency and queue-wait histograms, every
// dereference task one in the batch-size histogram, and the simulated
// storage path must record I/O round-trips.
func TestLatencyHistogramsPopulated(t *testing.T) {
	fx := newFixture(t, 3, 12, 2)
	res, err := Execute(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	var tasks, batches int64
	for _, st := range tr.Stages {
		tasks += st.Tasks
		batches += st.Batches
	}
	if got := tr.Lat.Task.Count; got != tasks {
		t.Errorf("task latency observations = %d, want %d (one per task)", got, tasks)
	}
	if got := tr.Lat.QueueWait.Count; got != tasks {
		t.Errorf("queue wait observations = %d, want %d (one per task)", got, tasks)
	}
	if got := tr.Lat.Batch.Count; got != batches {
		t.Errorf("batch size observations = %d, want %d (one per deref task)", got, batches)
	}
	var localIO, remoteIO int64
	for _, n := range tr.Nodes {
		localIO += n.LocalIO
		remoteIO += n.RemoteIO
	}
	if got := tr.Lat.IOLocal.Count + tr.Lat.IORemote.Count; got != localIO+remoteIO {
		t.Errorf("I/O latency observations = %d, want %d (one per storage access)",
			got, localIO+remoteIO)
	}
	if tr.Lat.Task.Max <= 0 {
		t.Error("task latency max not positive")
	}
}

// TestTimelineCapturedByDefault: Execute records timeline events without
// any opt-in, exactly one per task and one per retry, split and remote round
// trip — a task's enqueue is its event's TS − Wait, never an event of its own
// — under both dispatchers, on a clean run and on one whose transient faults
// are retried and split.
func TestTimelineCapturedByDefault(t *testing.T) {
	for _, impl := range dispatcherImpls {
		for _, faults := range []bool{false, true} {
			fx := newFixture(t, 2, 8, 2)
			opts := impl.opts(0)
			opts.EventCap = 0
			if faults {
				lif, _ := fx.cluster.File(fLine)
				s := &chaos.Schedule{}
				for p := 0; p < lif.NumPartitions(); p++ {
					s.Faults = append(s.Faults, chaos.Fault{File: fLine, Partition: p, Heals: 2})
				}
				armed, err := s.Arm(fx.cluster)
				if err != nil {
					t.Fatal(err)
				}
				defer armed.Disarm()
				opts.MaxRetries = 3
			}
			res, err := Execute(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, opts)
			if err != nil {
				t.Fatalf("%s, faults %v: %v", impl.name, faults, err)
			}
			checkOneEventPerTask(t, fmt.Sprintf("%s, faults %v", impl.name, faults), res.Trace, faults)
		}
	}
}

// checkOneEventPerTask fails t unless the job's timeline holds exactly its
// tasks, retries, splits and remote round trips, each of a named kind, with
// retries or splits present when the job ran under faults.
func checkOneEventPerTask(t *testing.T, name string, tr *trace.Snapshot, faults bool) {
	t.Helper()
	if tr.EventsDropped != 0 {
		t.Fatalf("%s: %d events dropped: the ring overflowed on a small job", name, tr.EventsDropped)
	}
	kinds := map[trace.EventKind]int64{}
	for _, ev := range tr.Events {
		kinds[ev.Kind]++
		if k := ev.Kind.String(); k == "" || strings.HasPrefix(k, "EventKind(") {
			t.Fatalf("%s: event of an unnamed kind: %+v", name, ev)
		}
		if ev.Kind == trace.EvTask {
			if ev.Dur < 0 || ev.Wait < 0 {
				t.Fatalf("%s: task event with negative duration or wait: %+v", name, ev)
			}
			if ev.Stage < 0 || int(ev.Stage) >= len(tr.Stages) {
				t.Fatalf("%s: task event with out-of-range stage: %+v", name, ev)
			}
		}
	}
	var splits int64
	for _, st := range tr.Stages {
		splits += st.BatchSplits
	}
	tasks, retries, rpcs := tr.TotalTasks(), tr.TotalRetries(), kinds[trace.EvRPC]
	if tasks == 0 || faults && retries+splits == 0 {
		t.Errorf("%s: %d tasks, %d retries, %d splits", name, tasks, retries, splits)
	}
	if kinds[trace.EvTask] != tasks || kinds[trace.EvRetry] != retries || kinds[trace.EvSplit] != splits {
		t.Errorf("%s: events by kind %v, want %d tasks, %d retries, %d splits", name, kinds, tasks, retries, splits)
	}
	if want := tasks + retries + splits + rpcs; int64(len(tr.Events)) != want {
		t.Errorf("%s: %d events, want %d: tasks %d + retries %d + splits %d + rpcs %d",
			name, len(tr.Events), want, tasks, retries, splits, rpcs)
	}
	// The captured log must yield a critical path.
	if segs := trace.CriticalPath(tr.Events, 3); len(segs) == 0 {
		t.Errorf("%s: critical path empty on a non-trivial job", name)
	}
}

// TestEventCapControls: EventCap < 0 disables capture entirely; a tiny
// positive cap bounds memory and reports the overflow.
func TestEventCapControls(t *testing.T) {
	fx := newFixture(t, 2, 10, 2)

	res, err := Execute(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, Options{EventCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Events) != 0 || res.Trace.EventsDropped != 0 {
		t.Fatalf("EventCap -1 still captured %d events (%d dropped)",
			len(res.Trace.Events), res.Trace.EventsDropped)
	}
	// Latency histograms stay on even with the timeline off.
	if res.Trace.Lat.Task.Count == 0 {
		t.Error("task latency histogram empty with timeline disabled")
	}

	res, err = Execute(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, Options{EventCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Events) > 4 {
		t.Fatalf("EventCap 4 retained %d events", len(res.Trace.Events))
	}
	if res.Trace.EventsDropped == 0 {
		t.Error("tiny cap on a multi-stage job must report dropped events")
	}
}
