package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// dispatcher is the one path a task takes from the executor to the workers
// that run it: Algorithm 1's single enqueue rule per node (§III-C). Every
// task bound for a node passes through executor.dispatch and then submit,
// whichever adapter the job runs on — standingJob (pool.go) or sharedJob, the
// cluster-wide scheduler's; both end in the one worker loop, Workers.loop.
type dispatcher interface {
	// submit queues t for node's workers, which call executor.run on it
	// exactly once; it never blocks on execution. depth is the queue depth
	// after the enqueue (for queue telemetry). A task refused because finish
	// has already begun gets errJobOver; any other error is the queue's own
	// failure. A refused task is never run.
	submit(node int, t task) (depth int, err error)
	// finish stops accepting tasks and waits for every accepted task to run;
	// the workers outlive it. It is called exactly once.
	finish()
}

// errJobOver is submit's refusal of a straggler: the job has completed,
// failed or been cancelled, and its dispatcher is shutting down.
var errJobOver = errors.New("core: job is over")

// newDispatcher picks the job's dispatcher: its queues in the standing sets,
// or — when Options.Scheduler is set — a job on the shared scheduler.
// Admission happens here, before any task exists: an over-quota tenant or an
// overloaded cluster rejects the whole job cheaply, instead of shedding
// half-dispatched work.
func (e *executor) newDispatcher() (dispatcher, error) {
	if e.opts.Scheduler == nil {
		return newStandingJob(e), nil
	}
	if e.opts.Tenant == "" {
		return nil, fmt.Errorf("Options.Tenant is required when Options.Scheduler is set")
	}
	job, err := e.opts.Scheduler.StartJob(e.opts.Tenant)
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	return &sharedJob{e: e, job: job}, nil
}

// sharedJob implements dispatcher over one admitted job of a TaskScheduler.
// The job owns no queue and no worker: its tasks wait in the tenant's fair
// queue (depth is that queue's) and run on the scheduler's cluster-wide
// workers, whose ids label the timeline tracks. A task crosses the seam as a
// closure, because SchedJob knows nothing of nodes or tasks.
type sharedJob struct {
	e    *executor
	job  SchedJob
	over atomic.Bool
}

func (s *sharedJob) submit(node int, t task) (int, error) {
	depth, err := s.job.Submit(func(worker int) { tk := t; s.e.run(node, &tk, worker) })
	if err != nil && s.over.Load() {
		err = errJobOver
	}
	return depth, err
}

func (s *sharedJob) finish() {
	s.over.Store(true)
	s.job.Finish() // waits for every submitted task, then releases the admission slot
}

// dispatch hands one task to a node's workers with balanced in-flight
// accounting: the task's weight is added before the submit (a worker may run
// and finish the task before submit even returns), and a refused submit
// gives it back. A straggler refused because the job is already over is
// dropped silently; any other refusal fails the job.
func (e *executor) dispatch(node int, t task) {
	w := t.weight()
	t.enq = time.Now().UnixNano()
	e.inflight.Add(w)
	depth, err := e.disp.submit(node, t)
	if err != nil {
		e.finishN(w)
		if err != errJobOver {
			e.fail(err)
		}
		return
	}
	e.tr.Enqueue(node, depth)
}

// run is what a worker does with a dispatched task, whichever dispatcher the
// worker belongs to: process it on the node's TaskCtx — so storage
// attribution (local vs remote I/O, trace spans) does not depend on who runs
// it — then account for it.
func (e *executor) run(node int, t *task, worker int) {
	e.process(e.tcs[node], t, worker)
	e.finishN(t.weight())
}

// finishN decrements the in-flight counter after a task (and everything it
// enqueued) is accounted for; global completion is the counter reaching
// zero ("until all tasks are finished").
func (e *executor) finishN(n int64) {
	if e.inflight.Add(-n) == 0 {
		e.doneOnce.Do(func() { close(e.done) })
	}
}
