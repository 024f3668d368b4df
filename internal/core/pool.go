package core

import (
	"math"
	"slices"
	"sync"
)

// Workers is the one worker set, behind the standing per-node sets below and
// sched's cluster-wide set. It owns goroutines; its owner owns the queues and
// the policy: next (under the lock) dequeues the next runnable T or reports
// none, run (without the lock) executes it, done (under the lock) accounts
// for it. A worker starts lazily (Kick) and parks on the set's one condvar
// between tasks, keeping its stack for the next task, of this job or a later
// one. It exits only when keep workers are already parked, or at Close.
type Workers[T any] struct {
	mu   *sync.Mutex // the owner's: it guards the owner's queues too
	cond sync.Cond
	next func() (T, bool)
	run  func(t T, worker int)
	done func(T)

	keep         int // parked workers retained
	live, parked int // a worker Kick wakes is no longer parked
	ids          int // the next worker id: spawn order labels timeline tracks
	closed       bool
	wg           sync.WaitGroup
}

// NewWorkers builds an empty set over the owner's lock mu.
func NewWorkers[T any](mu *sync.Mutex, keep int, next func() (T, bool), run func(t T, worker int), done func(T)) *Workers[T] {
	w := &Workers[T]{mu: mu, next: next, run: run, done: done, keep: keep}
	w.cond.L = mu
	return w
}

// Kick is the one spawn rule, called under the lock when a task just queued
// can run at once: wake a parked worker if there is one (so a burst wakes
// the parked rather than starting more), else start one if grow, the
// owner's ceiling, allows. It reports whether a worker started.
func (w *Workers[T]) Kick(grow bool) bool {
	if w.parked > 0 {
		w.parked-- // claimed: the next Kick of a burst wakes another
		w.cond.Signal()
		return false
	}
	if !grow || w.closed {
		return false
	}
	w.live++
	w.wg.Add(1)
	go w.loop(w.ids)
	w.ids++
	return true
}

// loop is every task worker. It looks for the next task before it parks, so
// work a done frees (a job or tenant back under its cap) never waits.
func (w *Workers[T]) loop(id int) {
	defer w.wg.Done()
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.closed {
		t, ok := w.next()
		if !ok {
			if w.parked >= w.keep {
				break
			}
			w.parked++
			w.cond.Wait()
			continue
		}
		w.mu.Unlock()
		w.run(t, id)
		w.mu.Lock()
		w.done(t)
	}
	w.live--
}

// Live and Parked count the set's workers; the caller holds the lock.
func (w *Workers[T]) Live() int   { return w.live }
func (w *Workers[T]) Parked() int { return w.parked }

// Close stops the set: parked workers exit at once, busy ones after their
// task, and Close returns when all have. The owner empties its queues first.
func (w *Workers[T]) Close() {
	w.mu.Lock()
	w.closed, w.parked = true, 0
	w.cond.Broadcast()
	w.mu.Unlock()
	w.wg.Wait()
}

// queueReleaseCap is the backing-array size above which a drained FIFO frees
// its storage, so a fan-out spike does not pin a spike-sized array.
const queueReleaseCap = 1024

// FIFO is the queue the worker sets serve — a job's per-node input queue of
// Algorithm 1, sched's per-tenant queue — under the set's lock. It is
// unbounded: workers enqueue while processing, so a bound could deadlock.
type FIFO[T any] struct {
	items []T
	head  int
}

// Push appends v and returns the queue's depth after it.
func (q *FIFO[T]) Push(v T) int {
	q.items = append(q.items, v)
	return q.Len()
}

// Pop removes the oldest item; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	q.items[q.head] = *new(T) // drop the reference for GC
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
		if cap(q.items) > queueReleaseCap {
			q.items = nil
		}
	}
	return v
}

// Len reports the queue's depth.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// standing holds Algorithm 1's per-node worker sets, indexed by node number.
// They belong to the process, not to a job or cluster — a task runs on its own
// executor's TaskCtx — and every job without a Scheduler borrows them.
// Between jobs a node keeps at most DefaultThreads parked workers.
var standing struct {
	sync.Mutex
	sets []*nodeSet
}

// nodeSet is one node's standing set and the queues of the jobs using it.
type nodeSet struct {
	mu      sync.Mutex
	w       *Workers[queued]
	jobs    []*jobQueue // the unfinished jobs, in arrival order
	threads int         // their limits added up: the node grows no further
	rr      int         // where next's rotation resumes
}

// jobQueue is one job's queue on one node, under the node set's lock. limit
// is Options.Threads: the job runs at most that many tasks on the node at once.
type jobQueue struct {
	e              *executor
	set            *nodeSet
	node           int
	q              FIFO[task]
	limit, running int
	over           bool
	drained        sync.Cond // on set.mu: an over job's last task is done
}

// queued is what a node's worker takes: a task and the queue it came from.
type queued struct {
	jq *jobQueue
	t  task
}

// next is the per-node pick policy: rotate over the jobs, taking the oldest
// task of the first one that has a task queued and is below its Threads. A
// job at its cap is passed over, so it never holds up another job's tasks.
func (s *nodeSet) next() (queued, bool) {
	for range s.jobs {
		if s.rr >= len(s.jobs) {
			s.rr = 0
		}
		jq := s.jobs[s.rr]
		if s.rr++; jq.q.Len() > 0 && jq.running < jq.limit {
			jq.running++
			return queued{jq: jq, t: jq.q.Pop()}, true
		}
	}
	return queued{}, false
}

func (q queued) run(worker int) { q.jq.e.run(q.jq.node, q.t, worker) }

func (q queued) done() {
	if q.jq.running--; q.jq.over && q.jq.running == 0 && q.jq.q.Len() == 0 {
		q.jq.drained.Signal()
	}
}

// standingJob is the dispatcher of a job without a Scheduler: its queue in
// each node's standing set.
type standingJob []jobQueue

// newStandingJob registers the job with the sets of its nodes, creating the
// sets a node number has not had before.
func newStandingJob(e *executor) standingJob {
	j := make(standingJob, e.topo.NumNodes())
	standing.Lock()
	for len(standing.sets) < len(j) {
		s := &nodeSet{}
		s.w = NewWorkers(&s.mu, DefaultThreads, s.next, queued.run, queued.done)
		standing.sets = append(standing.sets, s)
	}
	sets := standing.sets[:len(j)]
	standing.Unlock()
	// Threads can come from a request (?threads=). Capped at 2³¹−1, no number
	// of jobs overflows the node's sum of limits; no job runs more at once.
	limit := min(e.opts.Threads, math.MaxInt32)
	for node, s := range sets {
		j[node] = jobQueue{e: e, set: s, node: node, limit: limit}
		j[node].drained.L = &s.mu
		s.mu.Lock()
		s.jobs = append(s.jobs, &j[node])
		s.threads += limit
		s.mu.Unlock()
	}
	return j
}

// submit queues t and kicks the set if the job's queued and running tasks on
// the node are within its cap. The node grows only while it has fewer workers
// than its jobs' limits add up to: jobs in turn leave it at most Threads.
func (j standingJob) submit(node int, t task) (int, error) {
	jq := &j[node]
	s := jq.set
	s.mu.Lock()
	defer s.mu.Unlock()
	if jq.over {
		return 0, errJobOver
	}
	depth := jq.q.Push(t)
	if depth+jq.running <= jq.limit && s.w.Kick(s.w.Live() < s.threads) {
		jq.e.tr.WorkerSpawned(node)
	}
	return depth, nil
}

// finish refuses tasks on every node first, and only then waits, node by
// node, until the job has nothing queued or running: a task on node A that
// dispatches to node B meanwhile is refused or waited for, never lost. Queued
// tasks still run, cheaply once the job is cancelled; the workers stay.
func (j standingJob) finish() {
	for i := range j {
		j[i].set.mu.Lock()
		j[i].over = true
		j[i].set.mu.Unlock()
	}
	for i := range j {
		jq, s := &j[i], j[i].set
		s.mu.Lock()
		for jq.running > 0 || jq.q.Len() > 0 {
			jq.drained.Wait()
		}
		s.jobs = slices.DeleteFunc(s.jobs, func(o *jobQueue) bool { return o == jq })
		s.threads -= jq.limit
		s.mu.Unlock()
	}
}
