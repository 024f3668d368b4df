// Package trace is the execution observability layer of the ReDe engine:
// per-job execution traces sampled live by the SMPE executor and exported as
// immutable snapshots when the job finishes.
//
// A Trace records, per stage, how many tasks ran, what they emitted, how
// often Dereferencers were retried, how many invocations failed, and both
// the busy time (summed task durations) and the wall span (first task start
// to last task end). Per node it records the input-queue high-water mark,
// how many pool workers were actually spawned, and — attributed by the
// storage layer through the I/O context — how many accesses were served
// locally versus fetched from a remote node.
//
// On top of the counters sits the latency-observability layer: lock-free
// log-bucketed histograms (hist.go) record task service time, queue wait,
// batch size, and local/remote storage round-trips, and a bounded per-job
// event ring (events.go) captures a timeline of task/retry/split/rpc
// events exportable as Chrome trace-event JSON plus a critical-path
// extractor reporting where the job's wall time went.
//
// All live counters are atomics: the executor updates them from thousands
// of concurrent workers without locks, and a Snapshot can be taken at any
// moment, including while the job is still running. A Registry keeps the
// snapshots of recent jobs for operator endpoints (see internal/httpapi's
// /debug/jobs) and aggregates them into Prometheus-style text metrics.
package trace

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// StageInfo names one stage of the traced job.
type StageInfo struct {
	// Name is the stage's function name (e.g. "RangeDeref(orders)").
	Name string
	// Kind is "deref" or "ref".
	Kind string
}

// Trace collects live execution telemetry for one job. Create it with New;
// Release it once every task recording into it has returned and its last
// Snapshot is taken, and New lends it again, buffers as that job grew them
// (in a test binary, any later use panics). All methods are safe for
// concurrent use. The zero value is not usable.
type Trace struct {
	job    string
	tenant string
	start  time.Time

	// slow is the slow-task threshold; tasks slower than this are counted
	// per stage and reported through logf when it is non-nil.
	slow time.Duration
	logf func(format string, args ...any)

	stages []stageStats
	nodes  []nodeStats

	// lat holds the job-level latency distributions (always on; recording
	// into a lock-free histogram costs a few atomic adds per task).
	lat      latHists
	ring     EventRing   // the bounded timeline event log; limit 0 while disabled
	released atomic.Bool // set by Release, read only in a test binary
}

var traces sync.Pool              // released Traces, for New
var poisoning = testing.Testing() // a test binary: a released Trace panics on use

// live panics, in a test binary, if t (nil: a standalone NodeIO's) is released.
func (t *Trace) live() {
	if poisoning && t != nil && t.released.Load() {
		panic("trace: job " + t.job + ": Trace used after Release")
	}
}

// latHists is the live histogram set of one job.
type latHists struct {
	task     Histogram // task service time, ns
	wait     Histogram // enqueue-to-start queue wait, ns
	batch    Histogram // pointers per dereference task
	ioLocal  Histogram // local storage round-trip, ns
	ioRemote Histogram // cross-node storage round-trip, ns
}

// stageStats is the live counter set of one stage.
type stageStats struct {
	info      StageInfo
	tasks     atomic.Int64
	emits     atomic.Int64
	retries   atomic.Int64
	errors    atomic.Int64
	slowTasks atomic.Int64
	// batches counts dereference tasks dispatched and batchPtrs the
	// pointers they carried, so batchPtrs/batches is the stage's mean
	// batch size (1.0 when execution is unbatched). batchSplits counts
	// batches that failed as a unit and were retried pointer-by-pointer.
	batches     atomic.Int64
	batchPtrs   atomic.Int64
	batchSplits atomic.Int64
	busyNanos   atomic.Int64
	// firstStart and lastEnd are unix nanos; 0 means "no task yet".
	firstStart atomic.Int64
	lastEnd    atomic.Int64
}

// nodeStats is the live counter set of one compute node.
type nodeStats struct {
	queueHighWater atomic.Int64
	workersSpawned atomic.Int64
	io             NodeIO
}

// NodeIO counts the storage accesses one compute node issued, split into
// local (caller owns the partition) and remote (cross-node fetch). The
// storage layer reports into it through the I/O context (WithIO / IOFrom),
// which keeps dfs free of any dependency on the executor.
type NodeIO struct {
	local  atomic.Int64
	remote atomic.Int64
	// owner/node link back to the owning Trace (set by New): every node's
	// round trips land in its job-level histograms and, as EvRPC events, on
	// its timeline. Standalone NodeIOs have a nil owner and record neither.
	owner *Trace
	node  int
}

// Observe records one storage access.
func (n *NodeIO) Observe(remote bool) {
	n.owner.live()
	if remote {
		n.remote.Add(1)
	} else {
		n.local.Add(1)
	}
}

// ObserveLatency attributes the observed round-trip time of one completed
// access (the owner node's whole answer: gate queueing, modeled service and
// the read) to the job's local or remote I/O latency distribution.
// Standalone NodeIOs (not created by a Trace) ignore the duration.
func (n *NodeIO) ObserveLatency(remote bool, d time.Duration) {
	t := n.owner
	if t == nil {
		return
	}
	t.live()
	if remote {
		t.lat.ioRemote.RecordDur(d)
	} else {
		t.lat.ioLocal.RecordDur(d)
	}
}

// ObserveRPC lands one completed remote round trip on the owning job's
// timeline as an EvRPC interval attributed to (stage, node). A no-op for
// standalone NodeIOs or when timeline capture is disabled.
func (n *NodeIO) ObserveRPC(stage int, begin time.Time, d time.Duration) {
	t := n.owner
	if t == nil || t.ring.limit == 0 {
		return
	}
	t.live()
	t.ring.Add(Event{
		Kind: EvRPC, Stage: int32(stage), Node: int32(n.node),
		TS: begin.Sub(t.start).Nanoseconds(), Dur: int64(d),
	})
}

// ioKey carries a *NodeIO through a context.
type ioKey struct{}

// WithIO attaches io to ctx so the storage layer can attribute accesses to
// the issuing node's trace.
func WithIO(ctx context.Context, io *NodeIO) context.Context {
	return context.WithValue(ctx, ioKey{}, io)
}

// IOFrom returns the NodeIO attached to ctx, or nil when the caller is not
// traced (loaders, tools, baseline engines).
func IOFrom(ctx context.Context) *NodeIO {
	io, _ := ctx.Value(ioKey{}).(*NodeIO)
	return io
}

// New starts a trace for one job over the given stages and cluster size, on
// a released Trace when the pool has one.
func New(job string, stages []StageInfo, nodes int) *Trace {
	t, _ := traces.Get().(*Trace)
	if t == nil {
		t = new(Trace)
	}
	t.released.Store(false)
	t.job, t.start = job, time.Now()
	t.stages = slices.Grow(t.stages, len(stages))[:len(stages)]
	t.nodes = slices.Grow(t.nodes, nodes)[:nodes]
	clear(t.nodes) // Release leaves them linked to t: a NodeIO handed out sees the mark
	for i := range t.stages {
		t.stages[i].info = stages[i]
	}
	for i := range t.nodes {
		t.nodes[i].io.owner = t
		t.nodes[i].io.node = i
	}
	return t
}

// Release clears t and returns it to New's pool; nothing may use it after.
func (t *Trace) Release() {
	t.live()
	clear(t.stages)
	clear(t.ring.buf)
	t.ring = EventRing{buf: t.ring.buf[:0]}
	if cap(t.ring.buf) > eventRingKeep {
		t.ring.buf = nil
	}
	t.lat, t.tenant, t.slow, t.logf = latHists{}, "", 0, nil
	t.released.Store(true)
	traces.Put(t)
}

// SetTenant stamps the tenant the traced job runs on behalf of; every span,
// event, and counter the trace records is then attributable to it through
// the snapshot. Call before the job dispatches work.
func (t *Trace) SetTenant(tenant string) { t.live(); t.tenant = tenant }

// EnableEvents turns on timeline capture with a ring of the given capacity
// (DefaultEventCap when capacity <= 0). Without it, event-recording methods
// are no-ops and snapshots carry no Events.
func (t *Trace) EnableEvents(capacity int) {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	if t.ring.limit = capacity; t.ring.buf == nil {
		t.ring.buf = make([]Event, 0, min(capacity, eventRingStart))
	}
}

// SetSlowTask configures the slow-task threshold. Tasks slower than d are
// counted per stage; when logf is non-nil each one is also logged with its
// stage and duration. A zero d disables slow-task tracking.
func (t *Trace) SetSlowTask(d time.Duration, logf func(format string, args ...any)) {
	t.slow = d
	t.logf = logf
}

// TaskBegin marks one task entering execution on the given stage and
// returns its start time for the matching TaskEnd.
func (t *Trace) TaskBegin(stage int) time.Time {
	t.live()
	now := time.Now()
	s := &t.stages[stage]
	s.tasks.Add(1)
	s.firstStart.CompareAndSwap(0, now.UnixNano())
	return now
}

// TaskEnd marks the task started at begin as finished, accumulating its
// duration into the stage counters and the job's task-latency histogram and
// flagging it when it exceeds the slow-task threshold. It returns the
// task's service time.
func (t *Trace) TaskEnd(stage int, begin time.Time) time.Duration {
	t.live()
	now := time.Now()
	dur := now.Sub(begin)
	s := &t.stages[stage]
	s.busyNanos.Add(int64(dur))
	storeMax(&s.lastEnd, now.UnixNano())
	t.lat.task.RecordDur(dur)
	if t.slow > 0 && dur > t.slow {
		s.slowTasks.Add(1)
		if t.logf != nil {
			t.logf("trace: job %q stage %d (%s): slow task: %v > %v",
				t.job, stage, s.info.Name, dur, t.slow)
		}
	}
	return dur
}

// ObserveQueueWait records how long one task sat in a node's input queue
// between Enqueue and TaskBegin.
func (t *Trace) ObserveQueueWait(d time.Duration) { t.live(); t.lat.wait.RecordDur(d) }

// TaskEvent appends one completed task to the timeline event log with node,
// worker, and stage attribution. A no-op unless EnableEvents was called.
func (t *Trace) TaskEvent(stage, node, worker int, begin time.Time, dur, wait time.Duration, ptrs int) {
	t.live()
	if t.ring.limit == 0 {
		return
	}
	t.ring.Add(Event{
		Kind: EvTask, Stage: int32(stage), Node: int32(node), Worker: int32(worker),
		TS: begin.Sub(t.start).Nanoseconds(), Dur: int64(dur), Wait: int64(wait), Ptrs: int32(ptrs),
	})
}

// Mark appends an instant event (retry, batch split) to the timeline event
// log; v rides in the event's Ptrs field (the batch size, for splits). A
// no-op unless EnableEvents was called.
func (t *Trace) Mark(kind EventKind, stage, node, v int) {
	t.live()
	if t.ring.limit == 0 {
		return
	}
	t.ring.Add(Event{Kind: kind, Stage: int32(stage), Node: int32(node), TS: time.Since(t.start).Nanoseconds(), Ptrs: int32(v)})
}

// AddEmits records n outputs produced by the stage.
func (t *Trace) AddEmits(stage, n int) { t.live(); t.stages[stage].emits.Add(int64(n)) }

// AddRetry records one Dereferencer retry on the stage.
func (t *Trace) AddRetry(stage int) { t.live(); t.stages[stage].retries.Add(1) }

// AddBatch records one dereference task carrying n pointers on the stage.
func (t *Trace) AddBatch(stage, n int) {
	t.live()
	s := &t.stages[stage]
	s.batches.Add(1)
	s.batchPtrs.Add(int64(n))
	t.lat.batch.Record(int64(n))
}

// AddBatchSplit records one batch that failed as a unit and fell back to
// per-pointer execution on the stage.
func (t *Trace) AddBatchSplit(stage int) { t.live(); t.stages[stage].batchSplits.Add(1) }

// AddError records one failed invocation on the stage.
func (t *Trace) AddError(stage int) { t.live(); t.stages[stage].errors.Add(1) }

// Enqueue records a task landing on a node's queue at the given depth,
// maintaining the queue-depth high-water mark.
func (t *Trace) Enqueue(node, depth int) {
	t.live()
	storeMax(&t.nodes[node].queueHighWater, int64(depth))
}

// WorkerSpawned records one worker the job started on the node.
func (t *Trace) WorkerSpawned(node int) { t.live(); t.nodes[node].workersSpawned.Add(1) }

// NodeIO returns the node's I/O attribution counters, for attaching to the
// node's I/O context with WithIO.
func (t *Trace) NodeIO(node int) *NodeIO { t.live(); return &t.nodes[node].io }

// storeMax raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is an immutable copy of a Trace, taken with Trace.Snapshot. It
// is what Result carries and what the debug endpoints serve.
type Snapshot struct {
	// Job is the traced job's name.
	Job string `json:"job"`
	// Tenant is the principal the job ran on behalf of (empty for
	// untenanted jobs), attributing every span and event below.
	Tenant string `json:"tenant,omitempty"`
	// ID is assigned by a Registry when the snapshot is recorded (0 until
	// then).
	ID int64 `json:"id,omitempty"`
	// Start is when the job began executing.
	Start time.Time `json:"start"`
	// Elapsed is the wall time covered by the snapshot.
	Elapsed time.Duration `json:"elapsed"`
	// Err is the job's failure message, empty on success.
	Err string `json:"err,omitempty"`
	// Route names the execution route the planner chose for this job
	// ("index", "scan", or "scan-fallback" when a not-ready structure
	// degraded an index plan to the scan path). Empty for jobs executed
	// without a planner.
	Route string `json:"route,omitempty"`
	// BuildWait is how long the planner waited on an in-flight structure
	// build before routing (zero when it did not wait).
	BuildWait time.Duration `json:"buildWait,omitempty"`
	// CatalogVersion is the catalog version the job was planned against
	// (zero without a versioned catalog attached to the planner).
	CatalogVersion uint64 `json:"catalogVersion,omitempty"`
	// Stages holds one entry per job stage.
	Stages []StageSnapshot `json:"stages"`
	// Nodes holds one entry per compute node.
	Nodes []NodeSnapshot `json:"nodes"`
	// Lat carries the job's latency and batch-size distributions.
	Lat Latencies `json:"lat"`
	// Events is the job's bounded timeline event log (nil when capture was
	// disabled), exportable with WriteChromeTrace / CriticalPath.
	Events []Event `json:"events,omitempty"`
	// EventsDropped counts timeline events overwritten because the job
	// outgrew its event ring; Events then holds the newest ring-capacity
	// events.
	EventsDropped int64 `json:"eventsDropped,omitempty"`
}

// Latencies is the distribution set of one job (or, merged in a Registry,
// of all recorded jobs). Durations are in nanoseconds; Batch is a pointer
// count.
type Latencies struct {
	// Task is the task service-time distribution (TaskBegin to TaskEnd).
	Task HistSnapshot `json:"task"`
	// QueueWait is the enqueue-to-start wait distribution.
	QueueWait HistSnapshot `json:"queueWait"`
	// Batch is the pointers-per-dereference-task distribution.
	Batch HistSnapshot `json:"batch"`
	// IOLocal / IORemote are the observed storage round-trip distributions
	// (gate queueing + modeled service + the read), split by access locality.
	IOLocal  HistSnapshot `json:"ioLocal"`
	IORemote HistSnapshot `json:"ioRemote"`
}

// Merge returns both latency sets' observations combined.
func (l Latencies) Merge(o Latencies) Latencies {
	return Latencies{
		Task:      l.Task.Merge(o.Task),
		QueueWait: l.QueueWait.Merge(o.QueueWait),
		Batch:     l.Batch.Merge(o.Batch),
		IOLocal:   l.IOLocal.Merge(o.IOLocal),
		IORemote:  l.IORemote.Merge(o.IORemote),
	}
}

// StageSnapshot reports one stage of an executed job.
type StageSnapshot struct {
	// Stage is the stage index.
	Stage int `json:"stage"`
	// Name is the stage's function name.
	Name string `json:"name"`
	// Kind is "deref" or "ref".
	Kind string `json:"kind"`
	// Tasks is the number of pool tasks the stage executed (0 for
	// referencer stages that ran inline).
	Tasks int64 `json:"tasks"`
	// Emits counts the stage's outputs: records for deref stages, pointers
	// for ref stages (counted even when inlined).
	Emits int64 `json:"emits"`
	// Retries counts Dereferencer re-executions after transient failures.
	Retries int64 `json:"retries"`
	// Errors counts failed invocations.
	Errors int64 `json:"errors"`
	// SlowTasks counts tasks exceeding the slow-task threshold.
	SlowTasks int64 `json:"slowTasks,omitempty"`
	// Batches counts the dereference tasks the stage dispatched; each
	// carried one or more coalesced pointers.
	Batches int64 `json:"batches,omitempty"`
	// BatchedPtrs counts the pointers carried by those tasks, so
	// BatchedPtrs/Batches is the stage's mean batch size.
	BatchedPtrs int64 `json:"batchedPtrs,omitempty"`
	// BatchSplits counts batches that failed as a unit and were retried
	// pointer-by-pointer.
	BatchSplits int64 `json:"batchSplits,omitempty"`
	// Busy is the summed duration of the stage's tasks.
	Busy time.Duration `json:"busy"`
	// Wall is the span from the stage's first task start to its last task
	// end — how long the stage was live on the critical path.
	Wall time.Duration `json:"wall"`
}

// NodeSnapshot reports one compute node of an executed job.
type NodeSnapshot struct {
	// Node is the node id.
	Node int `json:"node"`
	// QueueHighWater is the deepest the node's input queue ever got.
	QueueHighWater int64 `json:"queueHighWater"`
	// WorkersSpawned is how many workers the job started on the node
	// (bounded by Options.Threads). Workers outlive the job that started
	// them, so it is 0 on a warm node, whose parked workers the job woke.
	WorkersSpawned int64 `json:"workersSpawned"`
	// LocalIO counts storage accesses served by partitions this node owns.
	LocalIO int64 `json:"localIO"`
	// RemoteIO counts cross-node fetches this node issued.
	RemoteIO int64 `json:"remoteIO"`
}

// Snapshot copies the live counters into an immutable Snapshot. It may be
// called while the job is still running; err (may be nil) records the job's
// outcome.
func (t *Trace) Snapshot(err error) *Snapshot {
	t.live()
	s := &Snapshot{
		Job:     t.job,
		Tenant:  t.tenant,
		Start:   t.start,
		Elapsed: time.Since(t.start),
		Stages:  make([]StageSnapshot, len(t.stages)),
		Nodes:   make([]NodeSnapshot, len(t.nodes)),
		Lat: Latencies{
			Task:      t.lat.task.Snapshot(),
			QueueWait: t.lat.wait.Snapshot(),
			Batch:     t.lat.batch.Snapshot(),
			IOLocal:   t.lat.ioLocal.Snapshot(),
			IORemote:  t.lat.ioRemote.Snapshot(),
		},
	}
	if t.ring.limit != 0 {
		s.Events, s.EventsDropped = t.ring.Snapshot()
	}
	if err != nil {
		s.Err = err.Error()
	}
	for i := range t.stages {
		st := &t.stages[i]
		wall := time.Duration(0)
		if first := st.firstStart.Load(); first != 0 {
			if last := st.lastEnd.Load(); last > first {
				wall = time.Duration(last - first)
			}
		}
		s.Stages[i] = StageSnapshot{
			Stage:       i,
			Name:        st.info.Name,
			Kind:        st.info.Kind,
			Tasks:       st.tasks.Load(),
			Emits:       st.emits.Load(),
			Retries:     st.retries.Load(),
			Errors:      st.errors.Load(),
			SlowTasks:   st.slowTasks.Load(),
			Batches:     st.batches.Load(),
			BatchedPtrs: st.batchPtrs.Load(),
			BatchSplits: st.batchSplits.Load(),
			Busy:        time.Duration(st.busyNanos.Load()),
			Wall:        wall,
		}
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		s.Nodes[i] = NodeSnapshot{
			Node:           i,
			QueueHighWater: n.queueHighWater.Load(),
			WorkersSpawned: n.workersSpawned.Load(),
			LocalIO:        n.io.local.Load(),
			RemoteIO:       n.io.remote.Load(),
		}
	}
	return s
}

// Table renders the snapshot as a human-readable per-stage table followed
// by one line per node, the format the bench commands print under -trace:
//
//	job "q5" 12.3ms
//	stage kind   name                         tasks   emits retries  maxq workers      busy      wall
//	    0 deref  RangeDeref(orders_date_idx)      4     120       0
//	...
func (s *Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %q %v", s.Job, s.Elapsed.Round(time.Microsecond))
	if s.Tenant != "" {
		fmt.Fprintf(&b, " tenant=%s", s.Tenant)
	}
	if s.Err != "" {
		fmt.Fprintf(&b, " FAILED: %s", s.Err)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%5s %-5s %-34s %9s %9s %7s %7s %6s %7s %6s %12s %12s\n",
		"stage", "kind", "name", "tasks", "emits", "batches", "avgbat", "splits", "retries", "slow", "busy", "wall")
	for _, st := range s.Stages {
		avg := "-"
		if st.Batches > 0 {
			avg = fmt.Sprintf("%.1f", st.MeanBatch())
		}
		fmt.Fprintf(&b, "%5d %-5s %-34s %9d %9d %7d %7s %6d %7d %6d %12s %12s\n",
			st.Stage, st.Kind, st.Name, st.Tasks, st.Emits, st.Batches, avg,
			st.BatchSplits, st.Retries, st.SlowTasks,
			st.Busy.Round(time.Microsecond), st.Wall.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "%5s %9s %9s %9s %9s\n", "node", "maxqueue", "workers", "localIO", "remoteIO")
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "%5d %9d %9d %9d %9d\n",
			n.Node, n.QueueHighWater, n.WorkersSpawned, n.LocalIO, n.RemoteIO)
	}
	return b.String()
}

// MeanBatch returns the stage's mean pointers per dereference task, or 0
// when the stage dispatched no dereference tasks.
func (st StageSnapshot) MeanBatch() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.BatchedPtrs) / float64(st.Batches)
}

// TotalBatches sums the per-stage dereference-task counts.
func (s *Snapshot) TotalBatches() int64 {
	var total int64
	for _, st := range s.Stages {
		total += st.Batches
	}
	return total
}

// TotalBatchedPtrs sums the pointers carried by dereference tasks across
// all stages; TotalBatchedPtrs/TotalBatches is the job's mean batch size.
func (s *Snapshot) TotalBatchedPtrs() int64 {
	var total int64
	for _, st := range s.Stages {
		total += st.BatchedPtrs
	}
	return total
}

// TotalTasks sums the per-stage task counts.
func (s *Snapshot) TotalTasks() int64 {
	var total int64
	for _, st := range s.Stages {
		total += st.Tasks
	}
	return total
}

// TotalRetries sums the per-stage retry counts.
func (s *Snapshot) TotalRetries() int64 {
	var total int64
	for _, st := range s.Stages {
		total += st.Retries
	}
	return total
}
