package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSched is an in-package stand-in for internal/sched (which core cannot
// import — sched imports core). It runs every submitted task on its own
// goroutine and records admissions so the executor's scheduler seam can be
// tested in isolation: admission errors surface before any task runs, tasks
// flow through Submit, and Finish joins them and — like sched.Job — refuses
// every later Submit.
type fakeSched struct {
	mu       sync.Mutex
	rejectAs error // when set, StartJob fails with this
	started  []string
	finished atomic.Int64
	tasks    atomic.Int64
}

func (f *fakeSched) StartJob(tenant string) (SchedJob, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rejectAs != nil {
		return nil, f.rejectAs
	}
	f.started = append(f.started, tenant)
	return &fakeJob{s: f}, nil
}

type fakeJob struct {
	s        *fakeSched
	wg       sync.WaitGroup
	finished atomic.Bool
}

func (j *fakeJob) Submit(run func(worker int)) (int, error) {
	if j.finished.Load() {
		return 0, errors.New("submit on a finished job")
	}
	j.s.tasks.Add(1)
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		run(0)
	}()
	return 1, nil
}

func (j *fakeJob) Finish() {
	j.finished.Store(true)
	j.wg.Wait()
	j.s.finished.Add(1)
}

// TestSchedulerSeamEquivalence runs the same join once on the job's own
// pools and once through a scheduler, and requires identical answers,
// tenant attribution in the trace, and every task routed via Submit.
func TestSchedulerSeamEquivalence(t *testing.T) {
	fx := newFixture(t, 3, 30, 3)
	job := fx.joinJob(50, 250, false)

	base, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 8, MaxBatch: 4, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}

	fs := &fakeSched{}
	res, err := ExecuteSMPE(fx.ctx, fx.joinJob(50, 250, false), fx.cluster, fx.cluster,
		Options{MaxBatch: 4, KeepRecords: true, Tenant: "acme", Scheduler: fs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != base.Count {
		t.Fatalf("scheduler path count %d != pool path count %d", res.Count, base.Count)
	}
	if err := checkNoLeak(res); err != nil {
		t.Fatal(err)
	}
	if got := fs.started; len(got) != 1 || got[0] != "acme" {
		t.Fatalf("admissions %v, want exactly [acme]", got)
	}
	if fs.finished.Load() != 1 {
		t.Fatalf("job finished %d times, want 1", fs.finished.Load())
	}
	if fs.tasks.Load() == 0 {
		t.Fatal("no tasks flowed through the scheduler Submit path")
	}
	if res.Trace.Tenant != "acme" {
		t.Fatalf("trace tenant %q, want %q", res.Trace.Tenant, "acme")
	}
	if base.Trace.Tenant != "" {
		t.Fatalf("untenanted run leaked tenant %q into trace", base.Trace.Tenant)
	}
}

// TestSchedulerSeamValidation pins the option contract: a scheduler without
// a tenant is a config error, and an admission rejection comes back as the
// job error with the scheduler's cause preserved — no tasks run first.
func TestSchedulerSeamValidation(t *testing.T) {
	fx := newFixture(t, 2, 10, 2)
	job := fx.joinJob(0, 100, false)

	_, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Scheduler: &fakeSched{}})
	if err == nil {
		t.Fatal("Scheduler without Tenant must be rejected")
	}

	cause := errors.New("tenant over quota")
	fs := &fakeSched{rejectAs: cause}
	_, err = ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Tenant: "acme", Scheduler: fs})
	if !errors.Is(err, cause) {
		t.Fatalf("admission rejection: got %v, want wrap of %v", err, cause)
	}
	if fs.tasks.Load() != 0 {
		t.Fatalf("%d tasks ran despite admission rejection", fs.tasks.Load())
	}
}

// errSubmitJob fails every Submit; the executor must roll back its
// accounting and fail the job rather than hang waiting for a task that was
// never enqueued.
type errSubmitJob struct{ fakeJob }

func (j *errSubmitJob) Submit(func(worker int)) (int, error) {
	return 0, fmt.Errorf("queue tore")
}

type errSubmitSched struct{ fakeSched }

func (f *errSubmitSched) StartJob(string) (SchedJob, error) {
	return &errSubmitJob{fakeJob{s: &f.fakeSched}}, nil
}

func TestSchedulerSeamSubmitFailure(t *testing.T) {
	fx := newFixture(t, 2, 10, 2)
	job := fx.joinJob(0, 100, false)
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Tenant: "acme", Scheduler: &errSubmitSched{}})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("executor hung after Submit failure instead of failing the job")
	}
	if err == nil {
		t.Fatal("job must fail when the scheduler rejects a task submit")
	}
}
