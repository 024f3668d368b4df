package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func testTrace() *Trace {
	return New("t", []StageInfo{
		{Name: "RangeDeref(idx)", Kind: "deref"},
		{Name: "EntryRef(base)", Kind: "ref"},
	}, 2)
}

func TestTraceCounters(t *testing.T) {
	tr := testTrace()
	begin := tr.TaskBegin(0)
	tr.AddEmits(0, 3)
	tr.TaskEnd(0, begin)
	tr.AddRetry(0)
	tr.AddError(1)
	tr.Enqueue(1, 5)
	tr.Enqueue(1, 2) // lower depth must not regress the high-water mark
	tr.WorkerSpawned(0)
	tr.NodeIO(0).Observe(false)
	tr.NodeIO(0).Observe(true)

	s := tr.Snapshot(nil)
	st := s.Stages[0]
	if st.Tasks != 1 || st.Emits != 3 || st.Retries != 1 {
		t.Errorf("stage 0 = %+v", st)
	}
	if st.Wall < 0 || st.Busy < 0 {
		t.Errorf("negative durations: %+v", st)
	}
	if s.Stages[1].Errors != 1 {
		t.Errorf("stage 1 errors = %d", s.Stages[1].Errors)
	}
	if s.Nodes[1].QueueHighWater != 5 {
		t.Errorf("node 1 high water = %d, want 5", s.Nodes[1].QueueHighWater)
	}
	if s.Nodes[0].WorkersSpawned != 1 || s.Nodes[0].LocalIO != 1 || s.Nodes[0].RemoteIO != 1 {
		t.Errorf("node 0 = %+v", s.Nodes[0])
	}
}

func TestTraceSlowTask(t *testing.T) {
	tr := testTrace()
	var logged []string
	tr.SetSlowTask(time.Nanosecond, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	begin := tr.TaskBegin(0)
	time.Sleep(time.Millisecond)
	tr.TaskEnd(0, begin)
	s := tr.Snapshot(nil)
	if s.Stages[0].SlowTasks != 1 {
		t.Errorf("slow tasks = %d, want 1", s.Stages[0].SlowTasks)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "slow task") {
		t.Errorf("slow log = %q", logged)
	}
}

func TestSnapshotErrAndTable(t *testing.T) {
	tr := testTrace()
	s := tr.Snapshot(errors.New("boom"))
	if s.Err != "boom" {
		t.Errorf("Err = %q", s.Err)
	}
	table := s.Table()
	for _, want := range []string{"FAILED: boom", "RangeDeref(idx)", "EntryRef(base)", "maxqueue", "workers"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestIOContext(t *testing.T) {
	if IOFrom(context.Background()) != nil {
		t.Fatal("IOFrom on bare context should be nil")
	}
	tr := testTrace()
	ctx := WithIO(context.Background(), tr.NodeIO(1))
	IOFrom(ctx).Observe(true)
	if got := tr.Snapshot(nil).Nodes[1].RemoteIO; got != 1 {
		t.Errorf("remote IO = %d, want 1", got)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := testTrace()
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				begin := tr.TaskBegin(0)
				tr.AddEmits(0, 1)
				tr.TaskEnd(0, begin)
				tr.Enqueue(0, i)
				tr.NodeIO(0).Observe(i%2 == 0)
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot(nil)
	if s.Stages[0].Tasks != workers*per || s.Stages[0].Emits != workers*per {
		t.Errorf("tasks=%d emits=%d, want %d", s.Stages[0].Tasks, s.Stages[0].Emits, workers*per)
	}
	if s.Nodes[0].QueueHighWater != per-1 {
		t.Errorf("high water = %d, want %d", s.Nodes[0].QueueHighWater, per-1)
	}
	if s.Nodes[0].LocalIO+s.Nodes[0].RemoteIO != workers*per {
		t.Errorf("IO total = %d", s.Nodes[0].LocalIO+s.Nodes[0].RemoteIO)
	}
}

func TestRegistryRingAndTotals(t *testing.T) {
	r := NewRegistry(2)
	for i := 0; i < 3; i++ {
		tr := New(fmt.Sprintf("job%d", i), []StageInfo{{Name: "d", Kind: "deref"}}, 1)
		begin := tr.TaskBegin(0)
		tr.TaskEnd(0, begin)
		var err error
		if i == 2 {
			err = errors.New("boom")
		}
		r.Add(tr.Snapshot(err))
	}
	recent := r.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring holds %d, want 2", len(recent))
	}
	if recent[0].Job != "job2" || recent[1].Job != "job1" {
		t.Errorf("recent order = %q, %q", recent[0].Job, recent[1].Job)
	}
	if recent[0].ID == 0 {
		t.Error("Add did not assign an ID")
	}
	if got := r.Get(recent[0].ID); got != recent[0] {
		t.Error("Get by ID failed")
	}
	if r.Get(9999) != nil {
		t.Error("Get of unknown ID should be nil")
	}

	// Totals cover all three jobs even though the ring evicted one.
	if tot := r.Totals(); tot.Jobs != 3 || tot.Failed != 1 || tot.Tasks != 3 {
		t.Errorf("totals jobs/failed/tasks = %d/%d/%d, want 3/1/3", tot.Jobs, tot.Failed, tot.Tasks)
	}
}
