// Package sim models the hardware the paper ran on: per-node disk latency,
// scan throughput, network round trips, and the bounded I/O queue depth of a
// real storage path.
//
// The paper's testbed (128 nodes, 24 HDDs each behind a RAID controller,
// queue depth 1008, 10 GbE) is replaced by a CostModel: each simulated node
// owns a Gate that admits at most QueueDepth concurrent I/Os and each I/O
// sleeps for its modeled latency. Real goroutine concurrency against these
// gates reproduces the paper's central phenomenon — random-access work
// finishes in time proportional to (accesses × latency ÷ achievable
// concurrency), while scans finish in time proportional to (records ÷
// static parallelism) — at laptop scale.
//
// Every modelled wait goes through Wait, which parks the caller on one
// process-wide heap of deadlines. A single waker goroutine, started by the
// first positive wait and never stopped, sleeps on one alarm set for the
// earliest deadline plus a little slack, and on each fire releases every
// wait that is due. On Linux the alarm is a timerfd the netpoller watches,
// so a modelled 400µs wait costs about 400µs; the runtime's own timers,
// which the other platforms use, wake an idle process only on millisecond
// boundaries. A runtime timer set slack after the timerfd backs it up: the
// runtime polls the netpoller only when a P runs out of work, so when every
// P is busy the timer, which the runtime checks on every schedule, fires
// first.
//
// The zero CostModel is free and instant, which keeps unit tests fast and
// deterministic.
package sim

import (
	"context"
	"sync/atomic"
	"time"
)

// CostModel describes the simulated cost of storage and network operations.
type CostModel struct {
	// LookupLatency is charged per random (point or range) lookup served
	// by a node's disk.
	LookupLatency time.Duration
	// ScanPerRecord is the amortized sequential-scan cost per record.
	ScanPerRecord time.Duration
	// NetworkRTT is added when the requesting node differs from the node
	// owning the partition.
	NetworkRTT time.Duration
	// BatchPerKey is the marginal latency charged for each key after the
	// first in a batched lookup (LookupBatch): the head of the batch pays
	// the full LookupLatency seek, and the sorted keys behind it ride the
	// same arm movement (seek amortization, as in a drive's native command
	// queueing or an LSM multi-get). Zero means marginal keys are free.
	BatchPerKey time.Duration
	// QueueDepth bounds the number of concurrent I/Os a node's storage
	// path admits (the paper configures nr_request/queue_depth = 1008 on
	// each data drive array). Zero means unbounded admission.
	QueueDepth int
	// Spindles bounds the number of I/Os a node *services* concurrently —
	// the drive count of the array (the paper's nodes have 24 data HDDs).
	// Admitted I/Os beyond this wait in the queue. Zero means unbounded
	// service, which makes random I/O throughput infinite; experiments
	// should set it.
	Spindles int
}

// Zero reports whether the model charges no costs at all; gates can then
// skip admission entirely.
func (m CostModel) Zero() bool {
	return m.LookupLatency == 0 && m.ScanPerRecord == 0 && m.NetworkRTT == 0 &&
		m.BatchPerKey == 0 && m.QueueDepth == 0 && m.Spindles == 0
}

// HDDProfile returns the cost model used by the benchmark harnesses: a
// scaled-down stand-in for the paper's nodes (24 × 10K-RPM SAS HDDs behind
// a RAID controller, queue depth 1008, 10 GbE). Latencies are scaled down
// ~10× against real hardware so a full Fig. 7 sweep runs in seconds; all
// arms of an experiment share the model, so relative results are
// unaffected. Per-node random-lookup throughput is Spindles/LookupLatency
// = 60k IOPS, and a partition scan streams on one spindle at
// 1/ScanPerRecord = 50k records/s.
func HDDProfile() CostModel {
	return CostModel{
		LookupLatency: 400 * time.Microsecond,
		ScanPerRecord: 20 * time.Microsecond,
		NetworkRTT:    100 * time.Microsecond,
		BatchPerKey:   50 * time.Microsecond,
		QueueDepth:    1008,
		Spindles:      24,
	}
}

// Gate is one node's I/O path: an admission semaphore of QueueDepth slots
// feeding a service semaphore of Spindles units. A nil Gate admits
// everything instantly.
type Gate struct {
	slots    chan struct{}
	spindles chan struct{}
	model    CostModel
}

// NewGate returns a Gate for the model, or nil if the model is free.
func NewGate(model CostModel) *Gate {
	if model.Zero() {
		return nil
	}
	g := &Gate{model: model}
	if model.QueueDepth > 0 {
		g.slots = make(chan struct{}, model.QueueDepth)
	}
	if model.Spindles > 0 {
		g.spindles = make(chan struct{}, model.Spindles)
	}
	return g
}

// Lookup charges one random lookup, including the network round trip if
// remote. It blocks for the modeled duration while holding a queue slot and
// honors ctx cancellation.
func (g *Gate) Lookup(ctx context.Context, remote bool) error {
	if g == nil {
		return ctx.Err()
	}
	d := g.model.LookupLatency
	if remote {
		d += g.model.NetworkRTT
	}
	return g.occupy(ctx, d)
}

// LookupBatch charges a batch of n point lookups served as ONE admitted
// I/O: the batch takes a single queue slot and a single spindle, pays the
// full LookupLatency for its first key plus BatchPerKey for each key after
// it, and — being one network message — at most one NetworkRTT when remote.
// This is the storage half of the executor's pointer batching: per-key
// admission overhead is replaced by a marginal seek cost.
func (g *Gate) LookupBatch(ctx context.Context, n int, remote bool) error {
	if g == nil {
		return ctx.Err()
	}
	if n <= 0 {
		return ctx.Err()
	}
	d := g.model.LookupLatency + time.Duration(n-1)*g.model.BatchPerKey
	if remote {
		d += g.model.NetworkRTT
	}
	return g.occupy(ctx, d)
}

// Scan charges a sequential scan of n records, including the network round
// trip if remote. Scans hold a single queue slot for their whole modeled
// duration, matching a streaming read.
func (g *Gate) Scan(ctx context.Context, n int, remote bool) error {
	if g == nil {
		return ctx.Err()
	}
	d := time.Duration(n) * g.model.ScanPerRecord
	if remote {
		d += g.model.NetworkRTT
	}
	return g.occupy(ctx, d)
}

// Hold occupies up to n admission slots without blocking and returns how
// many it took plus a function releasing them. Chaos injection uses it to
// squeeze a node's effective queue depth for a window; a gate without a
// bounded queue (or a nil gate) has nothing to squeeze and reports 0.
// The release function is idempotent.
func (g *Gate) Hold(n int) (taken int, release func()) {
	if g == nil || g.slots == nil || n <= 0 {
		return 0, func() {}
	}
	for taken < n {
		select {
		case g.slots <- struct{}{}:
			taken++
		default:
			// Queue full (or contended): hold what we have.
			n = taken
		}
	}
	var once atomic.Bool
	k := taken
	return taken, func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		for i := 0; i < k; i++ {
			<-g.slots
		}
	}
}

// occupy takes an admission slot, waits for a spindle, services the I/O
// for d, and releases both.
func (g *Gate) occupy(ctx context.Context, d time.Duration) error {
	if g.slots != nil {
		select {
		case g.slots <- struct{}{}:
			defer func() { <-g.slots }()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if g.spindles != nil {
		select {
		case g.spindles <- struct{}{}:
			defer func() { <-g.spindles }()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return Wait(ctx, d)
}

// Wait is the sim plane's one modelled wait: it blocks for d and returns
// nil, or returns ctx.Err() as soon as ctx ends first. A non-positive d
// only reports ctx.Err(). It never returns nil early, it is released at
// most slack plus the waker's wake-up latency past d (two slacks when every
// P is busy), and a warm Wait allocates nothing (see deadlines).
func Wait(ctx context.Context, d time.Duration) error {
	return waits.wait(ctx, d)
}
