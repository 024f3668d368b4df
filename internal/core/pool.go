package core

import (
	"sync"
	"sync/atomic"
)

// pools is the per-job dispatcher: a taskQueue and an on-demand worker pool
// per node, owned by the job ("distributing the data processing job to all
// the computing nodes"). Queue entries are task values, so handing a task to
// a node allocates nothing beyond the pointer slice the task already carries.
// Workers are spawned on demand up to Options.Threads per node — the paper
// reuses a standing pool; here each job grows its own, so a tiny job does not
// pay for a thousand idle workers.
type pools struct {
	// wg counts the workers of every node together: a worker on one node may
	// spawn a worker on another (it holds a count while it does), so one Wait
	// in finish covers workers started after the queues closed.
	wg    sync.WaitGroup
	nodes []nodePool
}

func newPools(e *executor) *pools {
	p := &pools{nodes: make([]nodePool, e.topo.NumNodes())}
	for node := range p.nodes {
		p.nodes[node] = nodePool{e: e, q: newTaskQueue(), wg: &p.wg, node: node, max: int32(e.opts.Threads)}
	}
	return p
}

func (p *pools) submit(node int, t task) (int, error) {
	np := &p.nodes[node]
	ok, depth := np.q.push(t)
	if !ok {
		return 0, errJobOver
	}
	np.maybeSpawn()
	return depth, nil
}

// finish closes every queue — pending tasks are still popped, and drain
// cheaply once the job's context is cancelled — and joins the workers.
func (p *pools) finish() {
	for i := range p.nodes {
		p.nodes[i].q.close()
	}
	p.wg.Wait()
}

// nodePool grows a node's worker set on demand, capped at max workers.
type nodePool struct {
	e       *executor
	q       *taskQueue
	wg      *sync.WaitGroup // the dispatcher's, shared by all nodes
	node    int
	max     int32
	spawned atomic.Int32
	idle    atomic.Int32
}

// maybeSpawn starts a new worker when no worker is idle and the pool has
// headroom. It is called after every enqueue, so pools grow exactly as fast
// as the queue outpaces them.
func (p *nodePool) maybeSpawn() {
	for {
		if p.idle.Load() > 0 {
			return
		}
		n := p.spawned.Load()
		if n >= p.max {
			return
		}
		if !p.spawned.CompareAndSwap(n, n+1) {
			continue // raced with another spawner; re-check
		}
		p.e.tr.WorkerSpawned(p.node)
		p.wg.Add(1)
		go p.worker(int(n)) // spawn order doubles as the worker's timeline track id
		return
	}
}

func (p *nodePool) worker(id int) {
	defer p.wg.Done()
	for {
		p.idle.Add(1)
		t, ok := p.q.pop()
		p.idle.Add(-1)
		if !ok {
			return
		}
		p.e.run(p.node, t, id)
	}
}

// queueReleaseCap is the backing-array size above which a drained queue
// frees its storage instead of reusing it. A fan-out spike early in a job
// would otherwise pin a spike-sized array for the whole run.
const queueReleaseCap = 1024

// taskQueue is the per-node input queue of Algorithm 1: unbounded and
// multi-producer/multi-consumer. Unboundedness matters — workers enqueue to
// their own node's queue while processing, so a bounded queue could
// deadlock the pool.
type taskQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []task
	head   int
	closed bool
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues t, reporting whether it was accepted and the resulting
// queue depth. Pushing to a closed queue is rejected (the job is done or
// failed; stragglers are dropped) — executor.dispatch then gives the task's
// weight back, or the in-flight counter would leak.
func (q *taskQueue) push(t task) (ok bool, depth int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, 0
	}
	q.items = append(q.items, t)
	q.cond.Signal()
	return true, len(q.items) - q.head
}

// pop dequeues the next task, blocking while the queue is open and empty.
// ok is false once the queue is closed and drained.
func (q *taskQueue) pop() (t task, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.items) {
		return task{}, false
	}
	t = q.items[q.head]
	q.items[q.head] = task{} // drop the reference for GC
	q.head++
	if q.head == len(q.items) {
		if cap(q.items) > queueReleaseCap {
			q.items = nil // release a spike-sized backing array
		} else {
			q.items = q.items[:0]
		}
		q.head = 0
	}
	return t, true
}

// close wakes all waiters; pending items remain poppable until drained.
func (q *taskQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// len reports the current queue depth (pending, unpopped tasks).
func (q *taskQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
