package dfs

// The node transport seam: every node is a NodeTransport, and every per-node
// data operation the engines issue (lookups, batched lookups, range reads,
// scans, appends, size stats) goes through it. NewCluster gives each node
// an in-process sim node (simNode), Local hands a one-node cluster's sim
// node to a networked node server, and a cluster built with
// NewClusterWithTransports delegates each node's operations to an arbitrary
// implementation — the real TCP client in internal/nodenet, for one.
//
// Every node shares one access path (access, below): it attributes the
// access and consults the cluster's FaultHook before the access reaches the
// node's transport, so one fault injector serves every kind of node.
//
// A transport that is also a BatchTransport appends what its lookups find
// onto the caller's record array, so a task's lookups fill the task's lent
// array on any node; a transport without the capability is called through
// its slice form and its answer copied. The sim node and the nodenet client
// have it.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/trace"
)

// NodeTransport is the seam between the executor/lake layers and one storage
// node. Every method addresses a (file, partition) pair whose partition is
// owned by the node behind the transport; callers resolve ownership first
// (partition i of every file lives on node i mod NumNodes).
//
// Implementations must classify failures the way the retry machinery
// expects: errors that can never heal (unknown file, bad partition index,
// malformed protocol frames) are marked with lake.AsPermanent or wrap
// lake.ErrNoSuchFile/lake.ErrNoSuchPartition; everything else (connection
// refused, timeouts, injected faults) stays transient and is retried by the
// executor with backoff.
type NodeTransport interface {
	// CreateFile registers a new empty file on the node.
	CreateFile(ctx context.Context, name string, kind Kind, partitions int, p lake.Partitioner) error
	// DropFile removes a file; dropping an unknown file is a no-op.
	DropFile(ctx context.Context, name string) error
	// Lookup returns the records stored under key in the partition.
	Lookup(ctx context.Context, file string, partition int, key lake.Key) ([]lake.Record, error)
	// LookupBatch serves a whole pointer batch in one round trip; out[i]
	// holds the records for keys[i] (PR 2's batch shape, and the wire unit
	// of the networked transport).
	LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error)
	// LookupRange returns every record with lo <= key <= hi, in key order.
	LookupRange(ctx context.Context, file string, partition int, lo, hi lake.Key) ([]lake.Record, error)
	// Scan delivers the partition's records in key order.
	Scan(ctx context.Context, file string, partition int, fn func(lake.Record) error) error
	// Append inserts records into the partition.
	Append(ctx context.Context, file string, partition int, recs []lake.Record) error
	// Stat reports the partition's record count and modeled byte size.
	Stat(ctx context.Context, file string, partition int) (records int, bytes int64, err error)
	// Close releases the transport's resources (connections, pools).
	Close() error
}

// BatchTransport is a NodeTransport that appends onto a record array the
// caller owns — lake.BatchFile's contract across the transport seam: the
// records of keys[i] go after those of keys[i-1], and when ends is non-nil
// ends[i] is the length of the result after them. On any error dst comes
// back at its own length with nothing left past it.
type BatchTransport interface {
	NodeTransport
	AppendLookup(ctx context.Context, dst []lake.Record, file string, partition int, key lake.Key) ([]lake.Record, error)
	AppendLookupBatch(ctx context.Context, dst []lake.Record, file string, partition int, keys []lake.Key, ends []int) ([]lake.Record, error)
	AppendLookupRange(ctx context.Context, dst []lake.Record, file string, partition int, lo, hi lake.Key) ([]lake.Record, error)
}

// AppendLookup is BatchTransport's AppendLookup over any transport: t's own
// append form when it has one, its Lookup copied onto dst otherwise.
func AppendLookup(ctx context.Context, t NodeTransport, dst []lake.Record, file string, partition int, key lake.Key) ([]lake.Record, error) {
	if bt, ok := t.(BatchTransport); ok {
		return bt.AppendLookup(ctx, dst, file, partition, key)
	}
	recs, err := t.Lookup(ctx, file, partition, key)
	if err != nil {
		return dst, err
	}
	return append(dst, recs...), nil
}

// AppendLookupBatch is BatchTransport's AppendLookupBatch over any
// transport: t's own append form when it has one, its LookupBatch copied
// onto dst otherwise.
func AppendLookupBatch(ctx context.Context, t NodeTransport, dst []lake.Record, file string, partition int, keys []lake.Key, ends []int) ([]lake.Record, error) {
	if bt, ok := t.(BatchTransport); ok {
		return bt.AppendLookupBatch(ctx, dst, file, partition, keys, ends)
	}
	groups, err := t.LookupBatch(ctx, file, partition, keys)
	if err != nil {
		return dst, err
	}
	if len(groups) != len(keys) {
		return dst, lake.AsPermanent(fmt.Errorf("dfs: %q/%d: batch answer has %d groups for %d keys", file, partition, len(groups), len(keys)))
	}
	for i, recs := range groups {
		dst = append(dst, recs...)
		if ends != nil {
			ends[i] = len(dst)
		}
	}
	return dst, nil
}

// AppendLookupRange is BatchTransport's AppendLookupRange over any
// transport: t's own append form when it has one, its LookupRange copied
// onto dst otherwise.
func AppendLookupRange(ctx context.Context, t NodeTransport, dst []lake.Record, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	if bt, ok := t.(BatchTransport); ok {
		return bt.AppendLookupRange(ctx, dst, file, partition, lo, hi)
	}
	recs, err := t.LookupRange(ctx, file, partition, lo, hi)
	if err != nil {
		return dst, err
	}
	return append(dst, recs...), nil
}

// LookupBatch is NodeTransport's LookupBatch for a BatchTransport: its
// AppendLookupBatch onto an array sized for one record per key, cut into one
// slice per key.
func LookupBatch(ctx context.Context, t BatchTransport, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	ends := make([]int, len(keys))
	recs, err := t.AppendLookupBatch(ctx, make([]lake.Record, 0, len(keys)), file, partition, keys, ends)
	if err != nil {
		return nil, err
	}
	return lake.Groups(recs, ends), nil
}

// Local returns the sim node of the one-node cluster c as a NodeTransport:
// the storage side of a networked node server, which reaches the node's
// partition trees and gate directly. Files created through it live on the
// node only, not in c's catalog, but appends through it are still told to
// c's append listeners. It panics when c has more than one node or its node
// is not a sim node of c's own.
func Local(c *Cluster) NodeTransport {
	if len(c.nodes) != 1 || c.own(c.nodes[0]) == nil {
		panic(fmt.Sprintf("dfs: Local needs a one-node sim cluster, got %d nodes", len(c.nodes)))
	}
	return c.nodes[0].transport
}

// NewClusterWithTransports builds a cluster whose node i is transports[i] —
// the front end of a real multi-process data plane. Like every cluster it
// keeps only catalog metadata and broadcasts CreateFile/DropFile to every
// distinct transport, so each node knows the full catalog.
//
// cfg.Nodes is ignored (the node count is len(transports)). cfg.Cost is
// only reported by Cost: the front end has no gate of its own, and charges
// no simulated latency on top of the transports' real round trips.
//
// A front end differs from a NewCluster cluster in one documented way:
// ScanWithBarrier degrades to barrier-then-scan, so exactly-once online
// structure builds require the cluster's own sim nodes. Its fault hook
// works as on the sim.
func NewClusterWithTransports(cfg Config, transports []NodeTransport) (*Cluster, error) {
	if len(transports) == 0 {
		return nil, fmt.Errorf("dfs: NewClusterWithTransports needs at least one transport")
	}
	c := &Cluster{cost: cfg.Cost, files: make(map[string]*file)}
	for i, t := range transports {
		if t == nil {
			return nil, fmt.Errorf("dfs: transport %d is nil", i)
		}
		c.nodes = append(c.nodes, &node{id: i, transport: t})
	}
	return c, nil
}

// SetNodeTransport swaps node i's transport. It exists so harnesses can
// interpose a proxying transport around a live node between runs; it must
// not be called while operations are in flight. A nil transport is
// rejected: every node is a transport.
func (c *Cluster) SetNodeTransport(i int, t NodeTransport) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("dfs: no node %d", i)
	}
	if t == nil {
		return fmt.Errorf("dfs: node %d: nil transport", i)
	}
	c.nodes[i].transport = t
	return nil
}

// distinctTransports lists the cluster's transports, deduplicated (several
// nodes may share one), in node order.
func (c *Cluster) distinctTransports() []NodeTransport {
	var out []NodeTransport
	for _, n := range c.nodes {
		if !slices.Contains(out, n.transport) {
			out = append(out, n.transport)
		}
	}
	return out
}

// broadcastCreate sends a CreateFile to every distinct transport, rolling
// back the ones that succeeded if any fails.
func (c *Cluster) broadcastCreate(name string, kind Kind, partitions int, p lake.Partitioner) error {
	ctx := context.Background()
	ts := c.distinctTransports()
	for i, t := range ts {
		if err := t.CreateFile(ctx, name, kind, partitions, p); err != nil {
			for _, done := range ts[:i] {
				done.DropFile(ctx, name) //nolint:errcheck // best-effort rollback
			}
			return fmt.Errorf("dfs: create %q: %w", name, err)
		}
	}
	return nil
}

// broadcastDrop sends a DropFile to every distinct transport; drops are
// best-effort (the catalog is authoritative and a node that missed the drop
// only holds dead data).
func (c *Cluster) broadcastDrop(name string) {
	ctx := context.Background()
	for _, t := range c.distinctTransports() {
		t.DropFile(ctx, name) //nolint:errcheck
	}
}

// Op names the kind of data access a FaultHook sees.
type Op uint8

const (
	OpLookup      Op = iota // a point lookup
	OpLookupBatch           // a batch of point lookups under one admission
	OpRange                 // a range lookup
	OpScan                  // a partition scan, with or without a barrier
	OpAppend                // an append
)

// Access is one data access as a FaultHook sees it.
type Access struct {
	Node      int
	File      string
	Partition int
	Op        Op
	// Keys is how many keys the access stands for, at least 1: a batch's
	// key count, an append's record count, 1 for everything else.
	Keys int
}

// FaultHook decides one access's injected fault: how long the access waits
// before it runs, and the error it fails with instead of running (nil: it
// runs). It is called on the access's goroutine, concurrently with other
// accesses, and must be safe for that.
type FaultHook func(Access) (wait time.Duration, err error)

// InjectFaults installs h as the cluster's fault hook; nil removes it. The
// hook sees every data access on every node before it reaches the node's
// transport, which makes it the one seam fault injection (internal/chaos)
// needs on both planes.
func (c *Cluster) InjectFaults(h FaultHook) {
	if h == nil {
		c.faults.Store(nil)
		return
	}
	c.faults.Store(&h)
}

// access runs one access of owner's partition — do — with the attribution
// every access gets: a remote fetch on the owner's counters when the calling
// node is another, and on the calling node's trace a local/remote
// observation and, on success, the observed round-trip latency. Before do
// runs, the cluster's fault hook (if any) may delay the access or fail it.
// A call to a node that is not one of the cluster's own sim nodes, carrying
// RPC trace context (executor dereferences), also lands an EvRPC interval
// on the job's timeline, so the critical-path extractor can name
// wire-dominated segments as (stage, node, rpc).
func (f *file) access(ctx context.Context, owner *node, partition int, op Op, keys int, do func() error) error {
	remote := false
	if caller := CallerNode(ctx); caller >= 0 && caller != owner.id {
		remote = true
		owner.counters.AddRemoteFetch()
	}
	io := trace.IOFrom(ctx)
	var t0 time.Time
	if io != nil {
		io.Observe(remote)
		t0 = time.Now()
	}
	var err error
	if h := f.cluster.faults.Load(); h != nil {
		err = inject(ctx, *h, Access{Node: owner.id, File: f.name, Partition: partition, Op: op, Keys: keys})
	}
	if err == nil {
		err = do()
	}
	if io != nil && err == nil {
		d := time.Since(t0)
		io.ObserveLatency(remote, d)
		if rc := trace.RPCFrom(ctx); rc.Job != "" && f.cluster.own(owner) == nil {
			io.ObserveRPC(rc.Stage, t0, d)
		}
	}
	return err
}

// inject applies h's decision about one access: it waits out the delay —
// giving up when ctx ends first — and returns the injected error, if any,
// naming the partition it hit.
func inject(ctx context.Context, h FaultHook, a Access) error {
	wait, err := h(a)
	if wait > 0 {
		if werr := sim.Wait(ctx, wait); werr != nil {
			return werr
		}
	}
	if err != nil {
		return fmt.Errorf("dfs: %q/%d: %w", a.File, a.Partition, err)
	}
	return nil
}
