package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// TestNegativeThreadsRejected is the regression test for the hang: with
// Threads < 0 the job's pool could never spawn a worker, so nothing drained
// the queue, inflight never hit zero, and Execute blocked on e.done forever.
// It must now fail fast instead.
func TestNegativeThreadsRejected(t *testing.T) {
	fx := newFixture(t, 2, 5, 1)
	job := fx.joinJob(0, 1000, false)
	done := make(chan error, 1)
	go func() {
		_, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: -1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Threads: -1 accepted")
		}
		if !strings.Contains(err.Error(), "Threads must be >= 0") {
			t.Errorf("error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute hung on Threads: -1")
	}

	// The SMPE entry point must reject it too (it only rewrites 0).
	if _, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: -7}); err == nil {
		t.Fatal("ExecuteSMPE accepted negative Threads")
	}
}

// TestUnknownSeedFileFailsFast is the regression test for silent seed
// mis-routing: a typo'd seed file used to swallow the catalog error and
// route the seed to node 0, producing a wrong (usually empty) result. It
// must now fail the job before any task is enqueued.
func TestUnknownSeedFileFailsFast(t *testing.T) {
	fx := newFixture(t, 2, 5, 1)
	job := fx.joinJob(0, 1000, false)
	job.Seeds = append(job.Seeds, lake.Pointer{File: "no_such_idx", PartKey: "x", Key: "x"})
	res, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{})
	if err == nil {
		t.Fatal("typo'd seed file did not fail the job")
	}
	if !strings.Contains(err.Error(), `unknown file "no_such_idx" in seed`) {
		t.Errorf("error = %v", err)
	}
	if !errors.Is(err, lake.ErrNoSuchFile) {
		t.Errorf("error does not wrap lake.ErrNoSuchFile: %v", err)
	}
	if res != nil {
		t.Errorf("failed job returned a result: %+v", res)
	}
	// Broadcast seeds must be validated too.
	job = fx.joinJob(0, 1000, false)
	job.Seeds = []lake.Pointer{{File: "ghost", NoPart: true, Key: "a", EndKey: "z"}}
	if _, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{}); err == nil ||
		!strings.Contains(err.Error(), `unknown file "ghost" in seed`) {
		t.Errorf("broadcast seed with unknown file: err = %v", err)
	}
}

// TestFailedJobLeavesNoGoroutines runs jobs that fail mid-flight and checks
// they leave no goroutine beyond the standing workers, and that a second
// round grows nothing past the jobs' own cap: a node grows only while it has
// fewer workers than its jobs' Threads add up to, so one job after another
// never leaves a node more than Threads. (That a warm node starts none at all
// for a job whose concurrency it already covers is
// TestStandingWarmNodeSpawnsNothing's.)
func TestFailedJobLeavesNoGoroutines(t *testing.T) {
	const nodes, threads = 4, 64
	fx := newFixture(t, nodes, 40, 3)
	boom := fmt.Errorf("mid-flight disk death")
	fx.fault(fLine, 1, boom)
	coldNodes(t)
	runtime.GC()
	before := runtime.NumGoroutine()
	for round := 0; round < 2; round++ {
		for i := 0; i < 10; i++ {
			job := fx.joinJob(0, 1000, false)
			if _, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: threads}); err == nil {
				t.Fatal("faulted job succeeded")
			}
		}
		live := standingLive()
		if live > nodes*threads {
			t.Fatalf("round %d: %d standing workers, more than %d nodes × Threads %d", round, live, nodes, threads)
		}
		// Give the runtime a moment to reap anything racing its own exit.
		waitGoroutines(t, before+live+3)
	}
}

// TestPermanentErrorNotRetried checks derefWithRetry fails fast on errors
// that cannot heal, instead of re-executing MaxRetries times with backoff.
func TestPermanentErrorNotRetried(t *testing.T) {
	fx := newFixture(t, 1, 2, 1)
	for name, mkErr := range map[string]func() error{
		"marked":   func() error { return lake.AsPermanent(fmt.Errorf("bad pointer")) },
		"wrapped":  func() error { return fmt.Errorf("deref: %w", lake.AsPermanent(fmt.Errorf("bad pointer"))) },
		"no-file":  func() error { return fmt.Errorf("%w: %q", lake.ErrNoSuchFile, "gone") },
		"bad-part": func() error { return fmt.Errorf("%w: 99", lake.ErrNoSuchPartition) },
	} {
		var attempts atomic.Int64
		job, err := NewJob("perm",
			[]lake.Pointer{{File: fPart, PartKey: "k", Key: "k"}},
			FuncDeref{Label: "failing", Fn: func(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
				attempts.Add(1)
				return nil, mkErr()
			}},
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{
			MaxRetries:   5,
			RetryBackoff: time.Hour, // a single retry would blow the test budget
		})
		if err == nil {
			t.Fatalf("%s: permanent error did not fail the job (res=%+v)", name, res)
		}
		if got := attempts.Load(); got != 1 {
			t.Errorf("%s: dereferencer ran %d times, want 1", name, got)
		}
	}
}

// TestTransientErrorStillRetried pins the counterpart: non-permanent errors
// keep retrying, and the retries show up in the execution trace.
func TestTransientErrorStillRetried(t *testing.T) {
	fx := newFixture(t, 1, 2, 1)
	var attempts atomic.Int64
	job, err := NewJob("transient",
		[]lake.Pointer{{File: fPart, PartKey: "k", Key: "k"}},
		FuncDeref{Label: "flaky", Fn: func(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
			if attempts.Add(1) < 3 {
				return nil, fmt.Errorf("flaky disk")
			}
			return nil, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{MaxRetries: 5})
	if err != nil {
		t.Fatalf("transient error not healed: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("dereferencer ran %d times, want 3", got)
	}
	if got := res.Trace.TotalRetries(); got != 2 {
		t.Errorf("trace counted %d retries, want 2", got)
	}
	if got := res.Trace.Stages[0].Retries; got != 2 {
		t.Errorf("stage 0 retries = %d, want 2", got)
	}
}

// TestResultCarriesTrace checks the executor populates the execution trace
// end to end: stage names and kinds, task/emit counts matching the legacy
// counters, workers-spawned gauges bounded by the pool cap, and queue
// high-water marks.
func TestResultCarriesTrace(t *testing.T) {
	fx := newFixture(t, 2, 10, 3)
	coldNodes(t) // a warm node starts no worker
	job := fx.joinJob(0, 1000, false)
	res, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 8, InlineReferencers: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("Result.Trace is nil")
	}
	if tr.Job != job.Name || len(tr.Stages) != len(job.Stages) || len(tr.Nodes) != 2 {
		t.Fatalf("trace shape = %+v", tr)
	}
	for i, st := range tr.Stages {
		if st.Name != job.Stages[i].name() {
			t.Errorf("stage %d name = %q, want %q", i, st.Name, job.Stages[i].name())
		}
		wantKind := "ref"
		if job.Stages[i].Deref != nil {
			wantKind = "deref"
		}
		if st.Kind != wantKind {
			t.Errorf("stage %d kind = %q, want %q", i, st.Kind, wantKind)
		}
		if st.Tasks != res.StageTasks[i] || st.Emits != res.StageEmits[i] {
			t.Errorf("stage %d trace (%d tasks, %d emits) != result (%d, %d)",
				i, st.Tasks, st.Emits, res.StageTasks[i], res.StageEmits[i])
		}
	}
	var workers, highWater int64
	for _, n := range tr.Nodes {
		if n.WorkersSpawned > 8 {
			t.Errorf("node %d spawned %d workers, cap is 8", n.Node, n.WorkersSpawned)
		}
		workers += n.WorkersSpawned
		highWater += n.QueueHighWater
	}
	if workers == 0 {
		t.Error("no workers recorded")
	}
	if highWater == 0 {
		t.Error("no queue depth recorded")
	}
	if tr.TotalTasks() == 0 {
		t.Error("no tasks recorded")
	}
}

// TestQueueReleasesSpikeBacking checks a drained queue frees a spike-sized
// backing array instead of pinning it for the rest of the job.
func TestQueueReleasesSpikeBacking(t *testing.T) {
	var q FIFO[task]
	for i := 0; i < queueReleaseCap+100; i++ {
		q.Push(task{stage: i})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if c := cap(q.items); c != 0 {
		t.Errorf("drained spike queue retains cap %d, want 0", c)
	}
	// Small queues keep reusing their storage.
	var small FIFO[task]
	small.Push(task{})
	small.Pop()
	if cap(small.items) == 0 {
		t.Error("small queue released its storage")
	}
	// After release the queue still works.
	if depth := q.Push(task{stage: 7}); depth != 1 {
		t.Fatalf("push after release: depth %d", depth)
	}
	if tk := q.Pop(); tk.stage != 7 {
		t.Fatalf("pop after release = %v", tk.stage)
	}
}

// TestQueuePushReportsAcceptance checks the accounting contract the
// in-flight counter depends on: accepted submits report the queue depth,
// submits after finish report rejection.
func TestQueuePushReportsAcceptance(t *testing.T) {
	coldNodes(t)
	unblock := make(chan struct{})
	r := newDispatchRig(t, Options{Threads: 1, EventCap: -1}, 1, func(*dispatchRig, *TaskCtx, lake.Pointer) { <-unblock })
	r.dispatch(0, "running") // holds the job's one slot, so what follows queues
	jq := &r.e.disp.(standingJob)[0]
	for running := 0; running == 0; time.Sleep(time.Millisecond) {
		jq.set.mu.Lock()
		running = jq.running
		jq.set.mu.Unlock()
	}
	r.e.inflight.Add(2) // submit bypasses dispatch's accounting
	for want := 1; want <= 2; want++ {
		if depth, err := r.e.disp.submit(0, task{ptrs: []lake.Pointer{{File: "f"}}}); err != nil || depth != want {
			t.Fatalf("submit %d = (%d, %v), want depth %d", want, depth, err, want)
		}
	}
	close(unblock)
	r.release(t)
	r.e.disp.finish()
	if _, err := r.e.disp.submit(0, task{}); err != errJobOver {
		t.Fatalf("submit after finish: err = %v, want errJobOver", err)
	}
}

// TestOptionsThreadsOneStillWorks pins the documented "Threads == 1 ≡ w/o
// SMPE" edge case next to the new validation.
func TestOptionsThreadsOneStillWorks(t *testing.T) {
	fx := newFixture(t, 2, 8, 2)
	job := fx.joinJob(0, 1000, false)
	res, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 1, InlineReferencers: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := fx.expectedJoinCount(0, 1000); res.Count != want {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
	for _, n := range res.Trace.Nodes {
		if n.WorkersSpawned > 1 {
			t.Errorf("node %d spawned %d workers with Threads: 1", n.Node, n.WorkersSpawned)
		}
	}
}

// TestKeycodecSeedFixture guards the fixture helper the regressions above
// rely on: a routed seed to an existing file still executes.
func TestKeycodecSeedFixture(t *testing.T) {
	fx := newFixture(t, 2, 4, 1)
	job := fx.joinJob(0, 1000, false)
	if _, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{}); err != nil {
		t.Fatal(err)
	}
	_ = keycodec.Int64(0) // keep the import honest with the fixture's encoding
}
