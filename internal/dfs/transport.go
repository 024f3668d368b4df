package dfs

// The node transport seam: every per-node data operation the engines issue
// (lookups, batched lookups, range reads, scans, appends, size stats) can be
// routed through a NodeTransport. A node with a nil transport executes
// against the cluster's own partition trees, Local adapts that path to the
// interface so a networked node server can host it, and a cluster built with
// NewClusterWithTransports delegates each node's operations to an arbitrary
// implementation — the real TCP client in internal/nodenet, for one.
//
// Both kinds of node share one access path (access, below): it attributes
// the access and consults the cluster's FaultHook before the access touches
// a partition tree or a transport, so one fault injector serves both.
//
// A transport that is also a BatchTransport appends what its lookups find
// onto the caller's record array, so a task's lookups on a transport node
// fill the task's lent array as they do on a sim node; a transport without
// the capability is called through its slice form and its answer copied.
// Local and the nodenet client have it.

import (
	"context"
	"fmt"
	"time"

	"lakeharbor/internal/lake"
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

// localTransport adapts a sim cluster's in-process data path to the
// NodeTransport interface. It is the storage side of a networked node (the
// lakenode server executes decoded RPCs against it).
type localTransport struct{ c *Cluster }

// Local returns the in-process NodeTransport over the cluster: operations
// execute directly against the cluster's partitions, with the same gate
// admission, counters, and fault hook as direct file-method calls.
func Local(c *Cluster) NodeTransport { return localTransport{c} }

func (t localTransport) lookup(name string) (*file, error) {
	t.c.mu.RLock()
	defer t.c.mu.RUnlock()
	f, ok := t.c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", lake.ErrNoSuchFile, name)
	}
	return f, nil
}

func (t localTransport) CreateFile(_ context.Context, name string, kind Kind, partitions int, p lake.Partitioner) error {
	_, err := t.c.CreateFile(name, kind, partitions, p)
	return err
}

func (t localTransport) DropFile(_ context.Context, name string) error {
	t.c.DropFile(name)
	return nil
}

func (t localTransport) Lookup(ctx context.Context, file string, partition int, key lake.Key) ([]lake.Record, error) {
	return t.AppendLookup(ctx, nil, file, partition, key)
}

func (t localTransport) LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	return LookupBatch(ctx, t, file, partition, keys)
}

func (t localTransport) LookupRange(ctx context.Context, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	return t.AppendLookupRange(ctx, nil, file, partition, lo, hi)
}

func (t localTransport) AppendLookup(ctx context.Context, dst []lake.Record, file string, partition int, key lake.Key) ([]lake.Record, error) {
	f, err := t.lookup(file)
	if err != nil {
		return dst, err
	}
	return f.AppendLookup(ctx, dst, partition, key)
}

func (t localTransport) AppendLookupBatch(ctx context.Context, dst []lake.Record, file string, partition int, keys []lake.Key, ends []int) ([]lake.Record, error) {
	f, err := t.lookup(file)
	if err != nil {
		return dst, err
	}
	return f.AppendLookupBatch(ctx, dst, partition, keys, ends)
}

func (t localTransport) AppendLookupRange(ctx context.Context, dst []lake.Record, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	f, err := t.lookup(file)
	if err != nil {
		return dst, err
	}
	return f.AppendLookupRange(ctx, dst, partition, lo, hi)
}

func (t localTransport) Scan(ctx context.Context, file string, partition int, fn func(lake.Record) error) error {
	f, err := t.lookup(file)
	if err != nil {
		return err
	}
	return f.Scan(ctx, partition, fn)
}

func (t localTransport) Append(ctx context.Context, file string, partition int, recs []lake.Record) error {
	f, err := t.lookup(file)
	if err != nil {
		return err
	}
	return f.Append(ctx, partition, recs...)
}

func (t localTransport) Stat(_ context.Context, file string, partition int) (int, int64, error) {
	f, err := t.lookup(file)
	if err != nil {
		return 0, 0, err
	}
	if partition < 0 || partition >= len(f.parts) {
		return 0, 0, fmt.Errorf("%w: %q/%d", lake.ErrNoSuchPartition, file, partition)
	}
	p := f.parts[partition]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.tree.Len(), p.bytes, nil
}

func (t localTransport) Close() error { return nil }

// NewClusterWithTransports builds a cluster whose node i delegates every
// data operation to transports[i] — the front end of a real multi-process
// data plane. The cluster keeps only catalog metadata locally; record data
// lives behind the transports. CreateFile/DropFile broadcast to every
// distinct transport so each node knows the full catalog.
//
// cfg.Nodes is ignored (the node count is len(transports)); cfg.Cost should
// normally stay zero so the front end charges no simulated latency on top of
// the transports' real round trips.
//
// A remote-backed cluster differs from the sim in one documented way:
// ScanWithBarrier degrades to barrier-then-scan, so exactly-once online
// structure builds require the in-process transport. Its fault hook works
// as on the sim.
func NewClusterWithTransports(cfg Config, transports []NodeTransport) (*Cluster, error) {
	if len(transports) == 0 {
		return nil, fmt.Errorf("dfs: NewClusterWithTransports needs at least one transport")
	}
	c := NewCluster(Config{Nodes: len(transports), Cost: cfg.Cost})
	for i, t := range transports {
		if t == nil {
			return nil, fmt.Errorf("dfs: transport %d is nil", i)
		}
		c.nodes[i].transport = t
	}
	c.remote = true
	return c, nil
}

// SetNodeTransport swaps node i's transport (nil restores the in-process sim
// path). It exists so harnesses can interpose a proxying transport around a
// live node between runs; it must not be called while operations are in
// flight.
func (c *Cluster) SetNodeTransport(i int, t NodeTransport) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("dfs: no node %d", i)
	}
	c.nodes[i].transport = t
	return nil
}

// distinctTransports lists the cluster's transports, deduplicated (several
// nodes may share one), in node order.
func (c *Cluster) distinctTransports() []NodeTransport {
	seen := make(map[NodeTransport]bool, len(c.nodes))
	var out []NodeTransport
	for _, n := range c.nodes {
		if n.transport == nil || seen[n.transport] {
			continue
		}
		seen[n.transport] = true
		out = append(out, n.transport)
	}
	return out
}

// remoteCreate broadcasts a CreateFile to every distinct transport, rolling
// back the ones that succeeded if any fails.
func (c *Cluster) remoteCreate(name string, kind Kind, partitions int, p lake.Partitioner) error {
	ctx := context.Background()
	ts := c.distinctTransports()
	for i, t := range ts {
		if err := t.CreateFile(ctx, name, kind, partitions, p); err != nil {
			for _, done := range ts[:i] {
				done.DropFile(ctx, name) //nolint:errcheck // best-effort rollback
			}
			return fmt.Errorf("dfs: remote create %q: %w", name, err)
		}
	}
	return nil
}

// remoteDrop broadcasts a DropFile; drops are best-effort (the local catalog
// is authoritative and a node that missed the drop only holds dead data).
func (c *Cluster) remoteDrop(name string) {
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
// hook sees every data access on every node — sim or transport-backed —
// before it touches a partition tree or a transport, which makes it the one
// seam fault injection (internal/chaos) needs on both planes.
func (c *Cluster) InjectFaults(h FaultHook) {
	if h == nil {
		c.faults.Store(nil)
		return
	}
	c.faults.Store(&h)
}

// access runs one access of owner's partition — do, given whether the
// caller is remote — with the attribution every access gets: a remote fetch
// on the owner's counters when the calling node is another, and on the
// calling node's trace a local/remote observation and, on success, the
// observed round-trip latency. Before do runs, the cluster's fault hook (if
// any) may delay the access or fail it. A transport call that carries RPC
// trace context (executor dereferences) also lands an EvRPC interval on the
// job's timeline, so the critical-path extractor can name wire-dominated
// segments as (stage, node, rpc).
func (f *file) access(ctx context.Context, owner *node, partition int, op Op, keys int, do func(remote bool) error) error {
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
		err = do(remote)
	}
	if io != nil && err == nil {
		d := time.Since(t0)
		io.ObserveLatency(remote, d)
		if rc := trace.RPCFrom(ctx); owner.transport != nil && rc.Job != "" {
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
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if err != nil {
		return fmt.Errorf("dfs: %q/%d: %w", a.File, a.Partition, err)
	}
	return nil
}
