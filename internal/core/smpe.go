package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/trace"
)

// Topology abstracts the compute/storage layout the executor runs on; dfs's
// Cluster implements it. Keeping it an interface preserves the separation of
// compute and storage (§III-A).
type Topology interface {
	// NumNodes returns the number of compute nodes.
	NumNodes() int
	// OwnerNode returns the node hosting a partition.
	OwnerNode(partition int) int
	// Bind returns a context whose storage accesses are attributed to the
	// given node (local vs remote pricing).
	Bind(ctx context.Context, node int) context.Context
}

// Options tunes the executor.
type Options struct {
	// Threads bounds the job's parallelism per node: at most this many of
	// its tasks run at once on the node's standing worker set, which
	// outlives the job. The paper's pool size is 1000 (§III-C); 0 selects
	// it. 1 disables SMPE: each node processes the job's queue
	// sequentially, leaving only the partitioned parallelism of the
	// cluster — the paper's "ReDe (w/o SMPE)" arm. Negative values are
	// rejected (a job that can never run a task would deadlock).
	Threads int
	// InlineReferencers, when true (the paper's default), runs Referencers
	// on the worker that produced their input record instead of
	// dispatching them to the pool: referencers are CPU-light and
	// switching threads for them only costs scheduling (§III-C).
	InlineReferencers bool
	// KeepRecords retains the records emitted by the final stage in
	// Result.Records. Counting alone is cheaper for large results.
	KeepRecords bool
	// Each, if non-nil, is called for every result record, on the emitting
	// node's workers. It must be safe for concurrent use.
	Each func(node int, rec lake.Record) error
	// MaxBatch bounds how many routed point pointers a worker coalesces
	// into one dereference task. While a worker processes a task, the
	// pointers it emits are buffered per (stage, file, partition); a
	// buffer is flushed as a single batched task when it reaches MaxBatch
	// and, unconditionally, when the producing task ends — a pointer never
	// waits on future work, so the tail of a job cannot strand. Batches
	// reach storage through BatchDereferencer (one gate admission per
	// batch) when the stage's Dereferencer implements it, and fall back to
	// per-pointer invocation when it does not. 0 and 1 disable coalescing
	// (the pre-batching behaviour: every pointer is its own task);
	// ExecuteSMPE defaults 0 to DefaultMaxBatch. Negative values are
	// rejected. Broadcast and range pointers are never coalesced.
	MaxBatch int
	// MaxRetries re-executes a failed Dereferencer invocation up to this
	// many additional times before failing the job — transient storage
	// faults (a flaky disk, a brief partition) then never surface.
	// Permanent errors (see Permanent) are never retried: an unknown file
	// or a bad pointer repeats identically on every attempt. Referencers
	// are pure CPU and are not retried.
	MaxRetries int
	// RetryBackoff is slept between retries (0 = immediate).
	RetryBackoff time.Duration
	// SlowTaskThreshold flags tasks slower than this in the execution
	// trace (per-stage SlowTasks counts); 0 disables flagging.
	SlowTaskThreshold time.Duration
	// EventCap bounds the job's timeline event ring (task begin/end,
	// enqueue, retry, and batch-split events with node + stage
	// attribution, exportable as a Chrome trace via Result.Trace). 0
	// selects trace.DefaultEventCap; a negative value disables timeline
	// capture entirely. When a job records more events than the cap, the
	// oldest are overwritten and the snapshot reports the dropped count,
	// so event memory stays bounded regardless of job size.
	EventCap int
	// TraceLog, if non-nil, receives one log line per slow task. It must
	// be safe for concurrent use (log.Printf is).
	TraceLog func(format string, args ...any)
	// Tenant names the principal the job runs on behalf of. It is stamped
	// on the execution trace (so every dispatch, retry, and batch the job
	// records is attributable) and identifies the job to Scheduler when
	// one is set. Empty means "untenanted" and is only valid without a
	// Scheduler: a shared scheduler cannot account anonymous work.
	Tenant string
	// Scheduler, when non-nil, dispatches the job's tasks onto a shared,
	// cluster-wide worker set with weighted-fair queuing across tenants
	// (internal/sched) instead of the standing per-node sets. Threads is
	// then ignored: capacity is the scheduler's one cluster-wide ceiling,
	// however many jobs run. Admission (tenant quotas, load shedding)
	// happens before any task is enqueued; a rejected job fails up front
	// with the scheduler's admission error. Either way every task takes the
	// one path in dispatch.go.
	Scheduler TaskScheduler
}

// TaskScheduler admits jobs to a shared multi-tenant worker pool. It is the
// executor's seam to internal/sched (same pattern as dfs.NodeTransport): the
// executor only needs admission and task submission, so the interface lives
// here and the scheduler implements it, keeping core free of a dependency on
// the scheduling layer.
type TaskScheduler interface {
	// StartJob admission-checks one job for the tenant and, when admitted,
	// returns the handle its tasks are submitted through. A rejection
	// (unknown tenant, zero weight, over job quota, overload shed) is an
	// error here — before a single task exists — never a hang.
	StartJob(tenant string) (SchedJob, error)
}

// SchedJob is one admitted job's submission handle.
type SchedJob interface {
	// Submit schedules run on the shared pool; run is invoked exactly once
	// with the executing worker's id. depth is the tenant's queue depth
	// after the enqueue (for queue telemetry). Submit never blocks on
	// execution — queued work waits in the tenant's fair queue. Once Finish
	// has been called, Submit refuses with an error and never invokes run.
	Submit(run func(worker int)) (depth int, err error)
	// Finish marks the job complete: it waits for every submitted task to
	// run, then releases the job's admission slot. It must be called
	// exactly once.
	Finish()
}

// DefaultThreads is the paper's per-node thread-pool size: a job's default
// Threads, and the most parked workers a node keeps between jobs.
const DefaultThreads = 1000

// DefaultMaxBatch is the pointer-batch size ExecuteSMPE uses when
// Options.MaxBatch is zero. 64 keeps a batch within one B-tree leaf's worth
// of keys while amortizing most of the per-admission cost.
const DefaultMaxBatch = 64

func (o Options) withDefaults() (Options, error) {
	if o.Threads < 0 {
		return o, fmt.Errorf("Options.Threads must be >= 0, got %d", o.Threads)
	}
	if o.MaxBatch < 0 {
		return o, fmt.Errorf("Options.MaxBatch must be >= 0, got %d", o.MaxBatch)
	}
	if o.Threads == 0 {
		o.Threads = DefaultThreads
	}
	return o, nil
}

// Result reports a job execution.
type Result struct {
	// Count is the number of records emitted by the final stage.
	Count int64
	// Records holds the emitted records if Options.KeepRecords was set.
	Records []lake.Record
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// StageTasks counts the tasks executed per stage (referencer stages
	// stay zero when referencers run inline).
	StageTasks []int64
	// StageEmits counts the outputs each stage produced: records for
	// Dereferencer stages, pointers for Referencer stages (counted even
	// when referencers run inline).
	StageEmits []int64
	// Trace is the job's execution trace: per-stage spans (tasks, emits,
	// retries, errors, busy/wall time), per-node queue high-water marks,
	// workers spawned, and local/remote I/O attribution.
	Trace *trace.Snapshot
}

// task is one unit of work in a node's input queue: a batch of pointers
// destined for a Dereferencer stage (coalesced up to Options.MaxBatch; often
// a single pointer), or (when referencers are not inlined) a record destined
// for a Referencer stage.
type task struct {
	stage int
	isRec bool
	ptrs  []lake.Pointer
	buf   *lent[lake.Pointer] // the pooled buffer ptrs lives in, nil when it is the task's own
	rec   lake.Record
	// enq is the unix-nano time the task was dispatched onto a queue; the
	// span from enq to TaskBegin is the task's queue wait.
	enq int64
}

// weight is the task's contribution to the executor's in-flight counter:
// one unit per pointer, so splitting or coalescing batches never changes
// the total outstanding weight of the same pointers.
func (t task) weight() int64 {
	if t.isRec || len(t.ptrs) == 0 {
		return 1
	}
	return int64(len(t.ptrs))
}

// Permanent reports whether err can never heal by retrying: a catalog miss,
// a bad partition index, a file of the wrong kind, or anything the storage
// layers marked with lake.AsPermanent. derefWithRetry consults it to fail
// fast instead of re-executing a doomed invocation MaxRetries times.
func Permanent(err error) bool { return lake.IsPermanent(err) }

// traceInfo derives the trace's stage descriptors from the job.
func traceInfo(job *Job) []trace.StageInfo {
	infos := make([]trace.StageInfo, len(job.Stages))
	for i, s := range job.Stages {
		kind := "ref"
		if s.Deref != nil {
			kind = "deref"
		}
		infos[i] = trace.StageInfo{Name: s.name(), Kind: kind}
	}
	return infos
}

// Execute runs the job with scalable massively parallel execution
// (Algorithm 1): the job is distributed to every node, each node
// dynamically decomposes its share into fine-grained tasks, and the node's
// standing workers execute them with up to Options.Threads-way parallelism.
func Execute(ctx context.Context, job *Job, catalog lake.Catalog, topo Topology, opts Options) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("core: job %q: %w", job.Name, err)
	}
	// Resolve every seed's file before any task is enqueued: a typo'd file
	// name must fail the job up front, not silently mis-route the seed.
	for _, seed := range job.Seeds {
		if _, err := catalog.File(seed.File); err != nil {
			return nil, fmt.Errorf("core: job %q: unknown file %q in seed: %w", job.Name, seed.File, err)
		}
	}
	start := time.Now()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	e, err := newExecutor(ctx, cancel, job, catalog, topo, opts)
	if err != nil {
		return nil, fmt.Errorf("core: job %q: %w", job.Name, err)
	}

	// Seed the initial stage. Seeds without partition information are
	// broadcast; routed seeds start on the node owning their partition.
	// Enqueueing wakes (on a cold node, starts) the first workers. A
	// sentinel in-flight unit is held across the loop: without it, a first
	// seed processed to completion before the second is dispatched would
	// drive the in-flight counter to zero, declare the job done, and drop
	// every later seed's work at finish — a wrong (partial) result.
	e.inflight.Add(1)
	for i := range job.Seeds {
		e.enqueuePointer(0 /* fromNode: seeds route to their owner */, 0, &job.Seeds[i], true)
	}
	e.finishN(1)

	// Wait for global completion or failure, then let go of the workers:
	// tasks still queued are run, and drain cheaply through the ctx check
	// in process when the job was cancelled.
	select {
	case <-e.done:
	case <-ctx.Done():
		e.fail(ctx.Err())
	}
	if failpoint(FailpointEarlyTraceRelease) {
		e.tr.Release() // deliberate bug: the trace goes back while its job still holds it
	}
	e.disp.finish()
	defer e.tr.Release() // after the Snapshot below; every task has returned from run

	if err := e.firstErr(); err != nil {
		return nil, fmt.Errorf("core: job %q: %w", job.Name, err)
	}
	// Task-accounting invariant ("inflight returns to zero"): on a
	// successful run every dispatched pointer and record has been balanced
	// by a finishN. A residue here means tasks leaked or were double
	// counted — a wrong-completion bug the chaos oracle checks for — so a
	// successful-looking job with a residue must fail loudly instead.
	if n := e.inflight.Load(); n != 0 {
		return nil, fmt.Errorf("core: job %q: task accounting leak: %d in-flight after completion", job.Name, n)
	}

	snap := e.tr.Snapshot(nil)
	res := &Result{
		Elapsed:    time.Since(start),
		StageTasks: make([]int64, len(job.Stages)),
		StageEmits: make([]int64, len(job.Stages)),
		Trace:      snap,
	}
	for i, st := range snap.Stages {
		res.StageTasks[i] = st.Tasks
		res.StageEmits[i] = st.Emits
	}
	for i := range e.results {
		res.Count += e.results[i].count
		if opts.KeepRecords {
			res.Records = append(res.Records, e.results[i].records...)
		}
	}
	return res, nil
}

// executor holds the shared state of one Execute call.
type executor struct {
	job     *Job
	catalog lake.Catalog
	topo    Topology
	opts    Options
	cancel  context.CancelFunc
	tr      *trace.Trace

	disp     dispatcher   // the one path tasks take to workers (dispatch.go)
	tcs      []*TaskCtx   // per node
	derefTcs [][]*TaskCtx // per node and Dereferencer stage: tcs[node] plus the RPC trace identity
	inflight atomic.Int64
	results  []nodeResult

	done     chan struct{}
	doneOnce sync.Once
	errOnce  sync.Once
	errMu    sync.Mutex
	err      error
}

// newExecutor builds the state of one run of job: its dispatcher first —
// under a shared scheduler that is the admission check, so a rejected job
// costs nothing else — then the trace and the per-node task contexts. ctx is
// the job's own context, cancel cancels it, opts have been through withDefaults.
func newExecutor(ctx context.Context, cancel context.CancelFunc, job *Job, catalog lake.Catalog, topo Topology, opts Options) (*executor, error) {
	n := topo.NumNodes()
	e := &executor{
		job:     job,
		catalog: catalog,
		topo:    topo,
		opts:    opts,
		cancel:  cancel,
		done:    make(chan struct{}),
		results: make([]nodeResult, n),
		tcs:     make([]*TaskCtx, n),
	}
	var err error
	if e.disp, err = e.newDispatcher(); err != nil {
		return nil, err
	}
	e.tr = trace.New(job.Name, traceInfo(job), n)
	e.tr.SetTenant(opts.Tenant)
	e.tr.SetSlowTask(opts.SlowTaskThreshold, opts.TraceLog)
	if opts.EventCap >= 0 {
		e.tr.EnableEvents(opts.EventCap) // 0 selects trace.DefaultEventCap
	}
	e.derefTcs = make([][]*TaskCtx, n)
	for node := 0; node < n; node++ {
		e.tcs[node] = &TaskCtx{
			Ctx:     trace.WithIO(topo.Bind(ctx, node), e.tr.NodeIO(node)),
			Node:    node,
			Nodes:   n,
			Catalog: catalog,
			Owner:   topo.OwnerNode,
		}
		// Dereferences hit storage, so their context carries the RPC trace
		// identity (job, tenant, stage; attempt 0 — derefWithRetry re-stamps
		// retries): remote transports forward it on the wire and attribute
		// node-side spans to this job. One context per (node, stage), built
		// here rather than per dereference task.
		e.derefTcs[node] = make([]*TaskCtx, len(job.Stages))
		for stage, s := range job.Stages {
			if s.Deref == nil {
				continue
			}
			tc := *e.tcs[node]
			tc.Ctx = trace.WithRPC(tc.Ctx, trace.RPCInfo{Job: job.Name, Tenant: opts.Tenant, Stage: stage})
			e.derefTcs[node][stage] = &tc
		}
	}
	return e, nil
}

// nodeResult is padded per-node result state to avoid cross-node
// contention on the hot collect path.
type nodeResult struct {
	mu      sync.Mutex
	count   int64
	records []lake.Record
	_       [32]byte // reduce false sharing between adjacent nodes
}

func (e *executor) fail(err error) {
	if err == nil {
		return
	}
	e.errOnce.Do(func() {
		e.errMu.Lock()
		e.err = err
		e.errMu.Unlock()
		e.cancel()
		e.doneOnce.Do(func() { close(e.done) })
	})
}

func (e *executor) firstErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// enqueuePointer implements Algorithm 1's enqueue and broadcast rules
// (lines 28–33, 47–51) for a single pointer. fromNode is the node whose
// queue routed pointers land on; seeds instead land on the owner of their
// target partition.
func (e *executor) enqueuePointer(fromNode, stage int, ptr *lake.Pointer, isSeed bool) {
	if ptr.NoPart {
		// BROADCAST: enqueue to every node; each node will treat it as
		// addressing its local partitions.
		for node := range e.tcs {
			e.dispatchOne(node, stage, ptr)
		}
		return
	}
	node := fromNode
	if isSeed {
		f, err := e.catalog.File(ptr.File)
		if err != nil {
			// Seeds are pre-validated in Execute; a miss here means the
			// file was dropped mid-flight. Fail loudly, never mis-route.
			e.fail(fmt.Errorf("unknown file %q in seed: %w", ptr.File, err))
			return
		}
		part, _ := lake.ResolvePartition(f, ptr)
		node = e.topo.OwnerNode(part)
	}
	e.dispatchOne(node, stage, ptr)
}

// dispatchOne dispatches ptr as a one-pointer batch in a buffer lent by
// ptrBufs, which process releases as it does any batch's.
func (e *executor) dispatchOne(node, stage int, ptr *lake.Pointer) {
	buf := ptrBufs.get()
	buf.s = append(buf.s, *ptr)
	e.dispatch(node, task{stage: stage, ptrs: buf.s, buf: buf})
}

// batchKey groups coalescible pointers: same stage, same target file, same
// routed partition. One flushed buffer therefore maps to exactly one
// partition probe — one gate admission — at the storage layer.
type batchKey struct {
	stage     int
	file      string
	partition int
}

// batcher coalesces the pointers emitted while ONE task is processed. It is
// worker-local (no locking) and is always flushed before the owning task
// finishes, so buffered pointers are covered by the producing task's
// in-flight weight and can never strand: completion is only detected after
// the flush has dispatched them. Pointers that cannot batch — broadcasts,
// ranges, catalog misses — pass straight through as singleton tasks.
//
// One task's pointers go to one stage and, nearly always, one file, so its
// buffers number at most that file's partitions: a short list, lent by
// bufLists and searched linearly, and the last resolved file remembered,
// instead of two maps.
type batcher struct {
	e    *executor
	node int
	bufs *lent[batchBuf] // nil until the first pointer that batches
	file lake.File       // the file the last pointer routed through
}

type batchBuf struct {
	key batchKey
	buf *lent[lake.Pointer] // nil between a flush at MaxBatch and the next pointer
}

// lent is a slice a task or job borrows: a pointer batch (ptrBufs) the
// batcher fills and its task carries — a singleton too — and a referencing
// task's pointer scratch, the batcher's buffer list (bufLists), a record
// array (recBufs) storage fills, a batch's key list and ends (keyBufs,
// endBufs), a job's queue on a node (queueBufs). Each is released after the
// last code that reads it (DESIGN.md §4). None is sized by what its task
// will produce: Q5′ spreads a handful of pointers over eight partitions, and
// sizing by record count cost more.
type lent[T any] struct {
	s    []T
	from *lender[T]
}

// lender pools lent slices, every one empty and zero over its capacity.
type lender[T any] struct {
	pool         sync.Pool
	fresh, limit int // the capacity of a new slice; of the largest one kept
	poison       T
}

var (
	ptrBufs = &lender[lake.Pointer]{fresh: DefaultMaxBatch, limit: DefaultMaxBatch}
	// An array of up to 160 KiB of records is kept: the index stage of a
	// claims query, about 2 300 entries, draws a warm one too.
	recBufs   = &lender[lake.Record]{limit: 4096}
	bufLists  = &lender[batchBuf]{fresh: 8, limit: 256} // one buffer per partition a task's pointers reach
	keyBufs   = &lender[lake.Key]{fresh: DefaultMaxBatch, limit: DefaultMaxBatch, poison: "\xa5 released key list"}
	endBufs   = &lender[int]{fresh: DefaultMaxBatch, limit: DefaultMaxBatch, poison: -1}
	queueBufs = &lender[task]{limit: queueReleaseCap}
	poisoning = testing.Testing()
)

func (l *lender[T]) get() *lent[T] {
	if b, _ := l.pool.Get().(*lent[T]); b != nil {
		return b
	}
	return &lent[T]{s: make([]T, 0, l.fresh), from: l}
}

// release clears what was written — the rest was never dirtied — so the pool
// retains nothing (a test binary poisons it, so nothing read through the
// slice before outlives it), and recycles the slice unless it outgrew the
// limit.
func (b *lent[T]) release() {
	clear(b.s)
	for i := 0; poisoning && i < len(b.s); i++ {
		b.s[i] = b.from.poison
	}
	b.s = b.s[:0]
	if cap(b.s) <= b.from.limit {
		b.from.pool.Put(b)
	}
}

// arenas lends each task the arena its dereference and inline referencers
// cut keys, carries and joined records from. An arena only appends, so one
// from the pool goes on where its last task stopped.
var arenas = sync.Pool{New: func() any { return new(lake.Arena) }}

// add routes one emitted pointer: buffered under its (stage, file,
// partition) when coalescible, dispatched immediately otherwise. A buffer
// reaching Options.MaxBatch is flushed at once.
func (b *batcher) add(stage int, ptr *lake.Pointer) {
	if b.e.opts.MaxBatch <= 1 || ptr.NoPart || ptr.EndKey != "" { // a range: IsRange would copy *ptr
		b.e.enqueuePointer(b.node, stage, ptr, false)
		return
	}
	if b.file == nil || b.file.Name() != ptr.File {
		f, err := b.e.catalog.File(ptr.File)
		if err != nil {
			// Unknown file: dispatch as a singleton so the stage's
			// Dereferencer reports the error on the normal path.
			b.e.enqueuePointer(b.node, stage, ptr, false)
			return
		}
		b.file = f
	}
	part, _ := lake.ResolvePartition(b.file, ptr) // never broadcast: NoPart checked above
	k := batchKey{stage: stage, file: ptr.File, partition: part}
	if b.bufs == nil {
		b.bufs = bufLists.get()
	}
	i := 0
	for i < len(b.bufs.s) && b.bufs.s[i].key != k {
		i++
	}
	if i == len(b.bufs.s) {
		b.bufs.s = append(b.bufs.s, batchBuf{key: k})
	}
	bb := &b.bufs.s[i]
	if bb.buf == nil {
		bb.buf = ptrBufs.get()
	}
	bb.buf.s = append(bb.buf.s, *ptr)
	if len(bb.buf.s) >= b.e.opts.MaxBatch {
		b.e.dispatch(b.node, task{stage: stage, ptrs: bb.buf.s, buf: bb.buf})
		bb.buf = nil // the task owns the buffer now
	}
}

// flush dispatches every partial buffer. It MUST run before the producing
// task is marked finished.
func (b *batcher) flush() {
	if b.bufs == nil {
		return
	}
	if !failpoint(FailpointDropTailFlush) { // armed, a deliberate bug for the differential oracle: strand the tail
		for _, bb := range b.bufs.s {
			if bb.buf != nil {
				b.e.dispatch(b.node, task{stage: bb.key.stage, ptrs: bb.buf.s, buf: bb.buf})
			}
		}
	}
	b.bufs.release()
	b.bufs = nil
}

// process executes one task: a Dereferencer invocation on a pointer batch,
// or a Referencer invocation on a record. Referencer work is inlined after
// the producing dereference when Options.InlineReferencers is set. The
// pointers a task emits are coalesced by a task-scoped batcher that is
// flushed before process returns — i.e. before the task's weight is
// subtracted from the in-flight counter — so batching can never let the job
// complete with pointers still buffered.
func (e *executor) process(tc *TaskCtx, t *task, worker int) {
	if tc.Ctx.Err() != nil {
		return // job already failed or cancelled; drain cheaply
	}
	a := arenas.Get().(*lake.Arena)
	defer arenas.Put(a)
	begin := e.tr.TaskBegin(t.stage)
	wait := max(begin.Sub(time.Unix(0, t.enq)), 0) // dispatch stamped enq
	e.tr.ObserveQueueWait(wait)
	defer func() {
		dur := e.tr.TaskEnd(t.stage, begin)
		e.tr.TaskEvent(t.stage, tc.Node, worker, begin, dur, wait, len(t.ptrs))
	}()
	if t.isRec {
		e.refer(tc, a, t.stage, t.rec)
		return
	}

	e.tr.AddBatch(t.stage, len(t.ptrs))
	rb := recBufs.get()
	defer rb.release() // after refer, collect or dispatch below
	recs, err := e.derefTask(e.derefTcs[tc.Node][t.stage], a, t.stage, e.job.Stages[t.stage].Deref, rb.s, t.ptrs)
	rb.s = recs
	if t.buf != nil {
		t.buf.release() // records never alias the pointer slice, and nothing below reads it
	}
	if err != nil {
		e.tr.AddError(t.stage)
		e.fail(err)
		return
	}
	e.tr.AddEmits(t.stage, len(recs))
	if t.stage == len(e.job.Stages)-1 {
		e.collect(tc.Node, recs)
		return
	}
	next := t.stage + 1
	if !e.opts.InlineReferencers {
		for _, r := range recs {
			e.dispatch(tc.Node, task{stage: next, isRec: true, rec: r})
		}
		return
	}
	// Inline the next Referencer on this worker (the paper avoids thread
	// switches for CPU-light referencers).
	e.refer(tc, a, next, recs...)
}

// refer runs stage's Referencer over recs on the calling worker, cutting what
// it makes from a, and hands the pointers it emits to the next stage through
// one batcher.
func (e *executor) refer(tc *TaskCtx, a *lake.Arena, stage int, recs ...lake.Record) {
	ref := e.job.Stages[stage].Ref
	appender, _ := ref.(AppendReferencer)
	b := batcher{e: e, node: tc.Node}
	// An AppendReferencer fills one lent scratch slice over and over, where
	// Ref returns a new slice per record.
	var scratch *lent[lake.Pointer]
	if appender != nil {
		scratch = ptrBufs.get()
	}
	for _, r := range recs {
		var ptrs []lake.Pointer
		var err error
		if appender != nil {
			ptrs, err = appender.AppendRef(tc, a, scratch.s, r)
		} else {
			ptrs, err = ref.Ref(tc, r)
		}
		if err != nil {
			e.tr.AddError(stage)
			e.fail(err)
			return
		}
		e.tr.AddEmits(stage, len(ptrs))
		for i := range ptrs {
			b.add(stage+1, &ptrs[i])
		}
		if scratch != nil {
			clear(ptrs) // the batcher copied them
			scratch.s = ptrs[:0]
		}
	}
	if scratch != nil {
		scratch.release()
	}
	b.flush()
}

// derefTask appends a pointer batch's records onto dst: in one call (a single
// storage round trip) when the Dereferencer batches, otherwise — and for a
// failed batch, split — pointer by pointer through derefWithRetry, so one bad
// pointer costs one pointer and the error names it. Whatever it returns, the
// array is zero past the returned length.
func (e *executor) derefTask(tc *TaskCtx, a *lake.Arena, stage int, d Dereferencer, dst []lake.Record, ptrs []lake.Pointer) ([]lake.Record, error) {
	_, appends := d.(AppendDereferencer)
	if _, batches := d.(BatchDereferencer); len(ptrs) > 1 && (appends || batches) {
		recs, err := derefOnto(tc, a, d, dst, ptrs)
		if err == nil {
			return recs, nil
		}
		dst = recs // the failed batch left nothing behind
		if tc.Ctx.Err() != nil {
			return dst, err // dying job: don't grind through the split
		}
		e.tr.AddBatchSplit(stage)
		e.tr.Mark(trace.EvSplit, stage, tc.Node, len(ptrs))
	}
	for i := range ptrs {
		var err error
		if dst, err = e.derefWithRetry(tc, a, stage, d, dst, ptrs[i:i+1]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// derefOnto appends the records of ptrs — several only when d batches — onto
// dst, through AppendDeref, cutting from a, when d has it; on error dst comes
// back as it was.
func derefOnto(tc *TaskCtx, a *lake.Arena, d Dereferencer, dst []lake.Record, ptrs []lake.Pointer) ([]lake.Record, error) {
	if ad, ok := d.(AppendDereferencer); ok {
		return ad.AppendDeref(tc, a, dst, ptrs)
	}
	if len(ptrs) == 1 {
		recs, err := d.Deref(tc, ptrs[0])
		if err != nil {
			return dst, err
		}
		return append(dst, recs...), nil
	}
	groups, err := d.(BatchDereferencer).DerefBatch(tc, ptrs)
	if err != nil {
		return dst, err
	}
	for _, recs := range groups {
		dst = append(dst, recs...)
	}
	return dst, nil
}

// derefWithRetry appends the records of ptr, one pointer, onto dst, retrying
// per Options.MaxRetries. Context cancellation is never retried (a dying job
// must die promptly), and neither are permanent errors (see Permanent): an
// unknown file or a bad pointer fails identically on every attempt.
func (e *executor) derefWithRetry(tc *TaskCtx, a *lake.Arena, stage int, d Dereferencer, dst []lake.Record, ptr []lake.Pointer) ([]lake.Record, error) {
	recs, err := derefOnto(tc, a, d, dst, ptr)
	for attempt := 0; err != nil && attempt < e.opts.MaxRetries; attempt++ {
		if Permanent(err) || tc.Ctx.Err() != nil {
			return recs, err
		}
		if sim.Wait(tc.Ctx, e.opts.RetryBackoff) != nil {
			return recs, err
		}
		e.tr.AddRetry(stage)
		e.tr.Mark(trace.EvRetry, stage, tc.Node, 0)
		// Retries carry their attempt ordinal in the RPC trace context so
		// node-side spans distinguish first tries from re-drives.
		rtc := *tc
		rtc.Ctx = trace.WithRPCAttempt(tc.Ctx, attempt+1)
		recs, err = derefOnto(&rtc, a, d, recs, ptr)
	}
	return recs, err
}

func (e *executor) collect(node int, recs []lake.Record) {
	if len(recs) == 0 {
		return
	}
	if e.opts.Each != nil {
		for _, r := range recs {
			if err := e.opts.Each(node, r); err != nil {
				e.fail(err)
				return
			}
		}
	}
	nr := &e.results[node]
	nr.mu.Lock()
	nr.count += int64(len(recs))
	if e.opts.KeepRecords {
		nr.records = append(nr.records, recs...)
	}
	nr.mu.Unlock()
}

// ExecuteSMPE runs the job with the paper's default massive parallelism,
// plus pointer batching at DefaultMaxBatch unless the caller chose a size.
func ExecuteSMPE(ctx context.Context, job *Job, catalog lake.Catalog, topo Topology, opts Options) (*Result, error) {
	if opts.MaxBatch == 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	opts.InlineReferencers = true
	return Execute(ctx, job, catalog, topo, opts)
}

// ExecutePlain runs the job with SMPE disabled: structures are still used,
// but each node processes its queue with a single worker, so the only
// parallelism left is the partitioned parallelism of the cluster. This is
// the paper's "ReDe (w/o SMPE)" configuration.
func ExecutePlain(ctx context.Context, job *Job, catalog lake.Catalog, topo Topology, opts Options) (*Result, error) {
	opts.Threads = 1
	opts.InlineReferencers = true
	return Execute(ctx, job, catalog, topo, opts)
}

// SeedRange builds the seed pointers for an initial key-range dereference
// against an index file. If the index is range-partitioned by its key, one
// routed seed per overlapping partition is produced; otherwise (hash or
// unknown partitioning, e.g. a local secondary index) a single broadcast
// seed lets every node search its local partitions.
// A degenerate range (lo > hi) selects nothing and yields an empty seed
// list; callers decide whether an empty job is an error.
func SeedRange(catalog lake.Catalog, file string, lo, hi lake.Key) ([]lake.Pointer, error) {
	f, err := catalog.File(file)
	if err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, nil
	}
	if rp, ok := f.Partitioner().(lake.RangePartitioner); ok {
		parts := rp.PartitionsOverlapping(lo, hi, f.NumPartitions())
		seeds := make([]lake.Pointer, 0, len(parts))
		for i, p := range parts {
			// Synthesize a partition key that routes to partition p:
			// lo itself lands on the first overlapping partition, and
			// each later partition is addressed by its lower bound.
			pk := lo
			if i > 0 {
				pk = rp.Bounds[p-1]
			}
			seeds = append(seeds, lake.Pointer{File: file, PartKey: pk, Key: lo, EndKey: hi})
		}
		return seeds, nil
	}
	return []lake.Pointer{{File: file, NoPart: true, Key: lo, EndKey: hi}}, nil
}
