// Package dfs is the "simple distributed file system" the paper's authors
// built for ReDe in place of HDFS (§III-E: "HDFS is not well-optimized for
// non-scan accesses such as lookups").
//
// It simulates a shared-nothing cluster inside one process: a Cluster owns N
// nodes, every file is split into partitions, and partition i lives on node
// i mod N. Each node has a sim.Gate that bounds concurrent I/Os and charges
// modeled latencies, plus metrics.Counters that record every access. Files
// implement the lake.File / lake.BtreeFile interfaces, so the ReDe engine,
// the baseline engine, and the structure builder all run against the same
// storage.
//
// Records returned by lookups and scans are shared, not copied; callers must
// treat Record.Data as read-only.
package dfs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"lakeharbor/internal/btree"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/metrics"
	"lakeharbor/internal/sim"
)

// Kind selects the access paths a file supports.
type Kind int

const (
	// Heap files support point lookups and scans (the paper's File).
	Heap Kind = iota
	// Btree files additionally support range lookups (the paper's
	// BtreeFile).
	Btree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Btree {
		return "btree"
	}
	return "heap"
}

// Config describes a simulated cluster.
type Config struct {
	// Nodes is the number of shared-nothing nodes; at least 1.
	Nodes int
	// Cost models I/O and network costs. The zero model is free/instant.
	Cost sim.CostModel
}

// Cluster is a simulated shared-nothing storage cluster and file catalog.
type Cluster struct {
	nodes []*node
	cost  sim.CostModel

	mu    sync.RWMutex
	files map[string]*file
	// version is the catalog version: it starts at 0 and increments on
	// every successful CreateFile/DropFile, making any catalog read
	// stampable with the exact catalog it observed.
	version     uint64
	catalogHook func(CatalogEvent)

	listenerMu sync.RWMutex
	listeners  []AppendListener

	// remote marks a cluster built over external node transports
	// (NewClusterWithTransports): catalog mutations broadcast to the
	// transports and data operations never touch the local partition trees.
	remote bool

	// faults is the installed FaultHook, nil when none (see InjectFaults).
	faults atomic.Pointer[FaultHook]
}

// CatalogEvent describes one catalog mutation: the version it produced and
// the file created or dropped (Partitions/Partitioner are zero for drops).
type CatalogEvent struct {
	Version     uint64
	Drop        bool
	Name        string
	Kind        Kind
	Partitions  int
	Partitioner lake.Partitioner
}

// SetCatalogHook installs the observer invoked — under the catalog lock, so
// events arrive in version order — after every catalog mutation. The
// versioned catalog service uses it to mirror the catalog and log mutations
// to the WAL. Only one hook is supported; the hook must not call back into
// catalog mutations.
func (c *Cluster) SetCatalogHook(fn func(CatalogEvent)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.catalogHook = fn
}

// CatalogVersion returns the current catalog version.
func (c *Cluster) CatalogVersion() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// AdvanceCatalogVersion raises the catalog version to v when it is lower:
// a restored snapshot continues the version sequence it was taken at.
func (c *Cluster) AdvanceCatalogVersion(v uint64) {
	c.mu.Lock()
	c.version = max(c.version, v)
	c.mu.Unlock()
}

// AppendListener observes every record appended to any file; the structure
// maintainer uses it to keep built indexes in sync with new data. Listeners
// run synchronously on the appending goroutine — under the appended
// partition's write lock (see notifyAppend) — and must not block for long.
type AppendListener func(file string, partition int, rec lake.Record)

// AddAppendListener registers a listener for all future appends.
func (c *Cluster) AddAppendListener(fn AppendListener) {
	c.listenerMu.Lock()
	defer c.listenerMu.Unlock()
	c.listeners = append(c.listeners, fn)
}

// notifyAppend fans an append out to the listeners. It is called by Append
// while the appended partition's write lock is still held, so for any one
// partition the pair (insert, notify) is atomic with respect to a scan's
// read lock: a listener has either been told about a record before a scan
// can start, or will be told only after the scan finished. Online structure
// builds depend on that ordering to decide whether the build scan or the
// maintainer owns a record appended mid-build (see indexer.Maintainer).
func (c *Cluster) notifyAppend(file string, partition int, recs []lake.Record) {
	c.listenerMu.RLock()
	listeners := c.listeners
	c.listenerMu.RUnlock()
	for _, fn := range listeners {
		for _, r := range recs {
			fn(file, partition, r)
		}
	}
}

type node struct {
	id       int
	gate     *sim.Gate
	counters metrics.Counters
	// transport, when non-nil, serves this node's data operations instead
	// of the in-process partition trees (see transport.go).
	transport NodeTransport
}

// NewCluster creates a cluster with cfg.Nodes nodes (minimum 1).
func NewCluster(cfg Config) *Cluster {
	n := cfg.Nodes
	if n < 1 {
		n = 1
	}
	c := &Cluster{cost: cfg.Cost, files: make(map[string]*file)}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &node{id: i, gate: sim.NewGate(cfg.Cost)})
	}
	return c
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Cost returns the cluster's cost model.
func (c *Cluster) Cost() sim.CostModel { return c.cost }

// TotalMetrics aggregates a snapshot across all nodes.
func (c *Cluster) TotalMetrics() metrics.Snapshot {
	var s metrics.Snapshot
	for _, n := range c.nodes {
		s = s.Add(n.counters.Snapshot())
	}
	return s
}

// CreateFile registers a new empty file. Partition i is placed on node
// i mod NumNodes, matching the paper's round-robin distribution.
func (c *Cluster) CreateFile(name string, kind Kind, partitions int, p lake.Partitioner) (lake.File, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("dfs: file %q: partitions must be >= 1, got %d", name, partitions)
	}
	if p == nil {
		return nil, fmt.Errorf("dfs: file %q: nil partitioner", name)
	}
	if c.remote {
		c.mu.RLock()
		_, exists := c.files[name]
		c.mu.RUnlock()
		if exists {
			return nil, fmt.Errorf("dfs: file %q already exists", name)
		}
		// Broadcast before registering locally, so a transport failure
		// leaves the catalog untouched.
		if err := c.remoteCreate(name, kind, partitions, p); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	f := &file{cluster: c, name: name, kind: kind, partitioner: p}
	for i := 0; i < partitions; i++ {
		f.parts = append(f.parts, &partition{tree: btree.New()})
	}
	c.files[name] = f
	c.version++
	if c.catalogHook != nil {
		c.catalogHook(CatalogEvent{
			Version: c.version, Name: name, Kind: kind,
			Partitions: partitions, Partitioner: p,
		})
	}
	return f, nil
}

// DropFile removes a file from the catalog (used by tests and by the
// structure builder when replacing an index). Dropping a file that does not
// exist is a no-op and does not bump the catalog version.
func (c *Cluster) DropFile(name string) {
	c.mu.Lock()
	if _, ok := c.files[name]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.files, name)
	c.version++
	if c.catalogHook != nil {
		c.catalogHook(CatalogEvent{Version: c.version, Drop: true, Name: name})
	}
	c.mu.Unlock()
	if c.remote {
		c.remoteDrop(name)
	}
}

// File implements lake.Catalog.
func (c *Cluster) File(name string) (lake.File, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", lake.ErrNoSuchFile, name)
	}
	return f, nil
}

// BtreeFile returns the named file if it supports range lookups.
func (c *Cluster) BtreeFile(name string) (lake.BtreeFile, error) {
	f, err := c.File(name)
	if err != nil {
		return nil, err
	}
	bf, ok := f.(lake.BtreeFile)
	if !ok || f.(*file).kind != Btree {
		return nil, lake.AsPermanent(fmt.Errorf("dfs: file %q is not a btree file", name))
	}
	return bf, nil
}

// FileNames returns the catalog contents (for tools and tests).
func (c *Cluster) FileNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.files))
	for n := range c.files {
		out = append(out, n)
	}
	return out
}

// OwnerNode returns the node hosting the given partition.
func (c *Cluster) OwnerNode(partition int) int { return partition % len(c.nodes) }

// NodeGate returns node i's I/O gate, or nil when the cluster's cost model
// is free (a free gate admits everything instantly and has nothing to hook).
// Chaos injection uses it to squeeze a node's queue depth.
func (c *Cluster) NodeGate(i int) *sim.Gate {
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i].gate
}

// callerKey carries the identity of the node issuing an access, so dfs can
// tell local from remote (cross-partition) accesses.
type callerKey struct{}

// WithCaller marks ctx as originating from the given compute node.
func WithCaller(ctx context.Context, nodeID int) context.Context {
	return context.WithValue(ctx, callerKey{}, nodeID)
}

// CallerNode returns the node that issued ctx, or -1 for external callers
// (loaders, tools), which are charged as local.
func CallerNode(ctx context.Context) int {
	if v, ok := ctx.Value(callerKey{}).(int); ok {
		return v
	}
	return -1
}

// file implements lake.BtreeFile on simulated partitions.
type file struct {
	cluster     *Cluster
	name        string
	kind        Kind
	partitioner lake.Partitioner
	parts       []*partition
}

// recordOverheadBytes is the modeled per-record storage overhead (tree node
// pointers, key headers) added to raw key+value size in a partition's byte
// accounting. Budgeted structure residency works in these modeled bytes.
const recordOverheadBytes = 32

type partition struct {
	mu   sync.RWMutex
	tree *btree.Tree
	// bytes is the modeled on-disk size of the partition: sum over records
	// of len(key)+len(data)+recordOverheadBytes. Guarded by mu.
	bytes int64
}

// Name implements lake.File.
func (f *file) Name() string { return f.name }

// NumPartitions implements lake.File.
func (f *file) NumPartitions() int { return len(f.parts) }

// Partitioner implements lake.File.
func (f *file) Partitioner() lake.Partitioner { return f.partitioner }

// Kind returns whether the file is a heap or btree file.
func (f *file) Kind() Kind { return f.kind }

func (f *file) part(i int) (*partition, *node, error) {
	if i < 0 || i >= len(f.parts) {
		return nil, nil, fmt.Errorf("%w: %q/%d", lake.ErrNoSuchPartition, f.name, i)
	}
	return f.parts[i], f.cluster.nodes[f.cluster.OwnerNode(i)], nil
}

// AppendLookupBatch implements lake.BatchFile: the whole batch is served
// under ONE gate admission — the cost model charges full latency for the
// first key and the marginal BatchPerKey for every key after it (seek
// amortization) — and, when the caller is remote, the batch is priced as a
// single network message. I/O attribution mirrors that (one local/remote
// observation), but the fault hook sees the batch's key count: the batch
// stands in for len(keys) point lookups, so a heal budget is consumed the
// same way batched and unbatched. Records are appended straight from the
// tree, or by a transport node (AppendLookupBatch over its transport).
func (f *file) AppendLookupBatch(ctx context.Context, dst []lake.Record, partitionIdx int, keys []lake.Key, ends []int) ([]lake.Record, error) {
	if len(keys) == 0 {
		return dst, nil
	}
	p, owner, err := f.part(partitionIdx)
	if err != nil {
		return dst, err
	}
	owner.counters.AddBatchLookup(len(keys))
	start := len(dst)
	if err := f.access(ctx, owner, partitionIdx, OpLookupBatch, len(keys), func(remote bool) error {
		if owner.transport == nil {
			return owner.gate.LookupBatch(ctx, len(keys), remote)
		}
		var err error
		dst, err = AppendLookupBatch(ctx, owner.transport, dst, f.name, partitionIdx, keys, ends)
		return err
	}); err != nil {
		return dst, err
	}
	if owner.transport == nil {
		p.mu.RLock()
		c := p.tree.Cursor()
		for i, k := range keys {
			c.Visit(k, func(v []byte) { dst = append(dst, lake.Record{Key: k, Data: v}) })
			if ends != nil {
				ends[i] = len(dst)
			}
		}
		p.mu.RUnlock()
	}
	owner.countRead(dst[start:])
	return dst, nil
}

// countRead adds a lookup's records to the owner's read counters.
func (n *node) countRead(recs []lake.Record) {
	bytes := 0
	for _, r := range recs {
		bytes += len(r.Data)
	}
	n.counters.AddRecordsRead(len(recs))
	n.counters.AddBytesRead(bytes)
}

// Lookup implements lake.File: AppendLookup onto nil.
func (f *file) Lookup(ctx context.Context, partitionIdx int, key lake.Key) ([]lake.Record, error) {
	return f.AppendLookup(ctx, nil, partitionIdx, key)
}

// AppendLookup implements lake.BatchFile: one gate admission, the records
// appended straight from the tree or by a transport node.
func (f *file) AppendLookup(ctx context.Context, dst []lake.Record, partitionIdx int, key lake.Key) ([]lake.Record, error) {
	p, owner, err := f.part(partitionIdx)
	if err != nil {
		return dst, err
	}
	owner.counters.AddLookup()
	start := len(dst)
	if err := f.access(ctx, owner, partitionIdx, OpLookup, 1, func(remote bool) error {
		if owner.transport == nil {
			return owner.gate.Lookup(ctx, remote)
		}
		var err error
		dst, err = AppendLookup(ctx, owner.transport, dst, f.name, partitionIdx, key)
		return err
	}); err != nil {
		return dst, err
	}
	if owner.transport == nil {
		p.mu.RLock()
		c := p.tree.Cursor()
		c.Visit(key, func(v []byte) { dst = append(dst, lake.Record{Key: key, Data: v}) })
		p.mu.RUnlock()
	}
	owner.countRead(dst[start:])
	return dst, nil
}

// LookupRange implements lake.BtreeFile. It returns every record with
// lo <= key <= hi in the partition, in key order.
func (f *file) LookupRange(ctx context.Context, partitionIdx int, lo, hi lake.Key) ([]lake.Record, error) {
	return f.AppendLookupRange(ctx, nil, partitionIdx, lo, hi)
}

// AppendLookupRange implements lake.BatchFile: one gate admission, the
// records appended straight from the tree or by a transport node.
func (f *file) AppendLookupRange(ctx context.Context, dst []lake.Record, partitionIdx int, lo, hi lake.Key) ([]lake.Record, error) {
	if f.kind != Btree {
		return dst, lake.AsPermanent(fmt.Errorf("dfs: file %q is not a btree file", f.name))
	}
	p, owner, err := f.part(partitionIdx)
	if err != nil {
		return dst, err
	}
	owner.counters.AddLookup()
	start := len(dst)
	if err := f.access(ctx, owner, partitionIdx, OpRange, 1, func(remote bool) error {
		if owner.transport == nil {
			return owner.gate.Lookup(ctx, remote)
		}
		var err error
		dst, err = AppendLookupRange(ctx, owner.transport, dst, f.name, partitionIdx, lo, hi)
		return err
	}); err != nil {
		return dst, err
	}
	if owner.transport == nil {
		p.mu.RLock()
		p.tree.Ascend(lo, hi, func(k string, v []byte) bool {
			dst = append(dst, lake.Record{Key: k, Data: v})
			return true
		})
		p.mu.RUnlock()
	}
	owner.countRead(dst[start:])
	return dst, nil
}

// Scan implements lake.File. The whole partition's scan cost is charged
// up front as one streaming I/O, then records are delivered in key order.
func (f *file) Scan(ctx context.Context, partitionIdx int, fn func(lake.Record) error) error {
	return f.ScanWithBarrier(ctx, partitionIdx, nil, fn)
}

// ScanWithBarrier is Scan with one extra guarantee: barrier is invoked
// after the partition's read lock is acquired and before the first record
// is delivered. An append's (insert, notify) pair is atomic under the same
// lock, so everything notified before barrier runs is visible to this scan,
// and everything notified after it is not. The structure builder uses the
// barrier to flip a partition's maintenance from "buffered" to "live" at
// exactly the point where responsibility for new records changes hands.
// An access the fault hook fails never runs its barrier, on either plane.
func (f *file) ScanWithBarrier(ctx context.Context, partitionIdx int, barrier func(), fn func(lake.Record) error) error {
	p, owner, err := f.part(partitionIdx)
	if err != nil {
		return err
	}
	return f.access(ctx, owner, partitionIdx, OpScan, 1, func(remote bool) error {
		if owner.transport != nil {
			// Degraded mode: over a real transport there is no shared
			// partition lock to make (barrier, first record) atomic with
			// appends, so this is barrier-then-scan. Appends racing the
			// scan may be seen by both the barrier-side listener and the
			// scan; exactly-once online builds therefore require the
			// in-process transport.
			if barrier != nil {
				barrier()
			}
			scanned, bytes := 0, 0
			err := owner.transport.Scan(ctx, f.name, partitionIdx, func(r lake.Record) error {
				scanned++
				bytes += len(r.Data)
				return fn(r)
			})
			owner.counters.AddRecordsScanned(scanned)
			owner.counters.AddBytesRead(bytes)
			return err
		}
		if barrier == nil {
			// A plain scan is charged before it takes the read lock, so
			// appends to the partition are not held up for its modeled
			// service time.
			p.mu.RLock()
			n := p.tree.Len()
			p.mu.RUnlock()
			if err := owner.gate.Scan(ctx, n, remote); err != nil {
				return err
			}
		}
		p.mu.RLock()
		defer p.mu.RUnlock()
		if barrier != nil {
			barrier()
			// Admission happens under the read lock here: releasing it to
			// charge the gate would let appends slip between the barrier
			// and the iteration, which is exactly the ambiguity the
			// barrier removes. Builds therefore block concurrent appends
			// to the partition for the scan's modeled service time.
			if err := owner.gate.Scan(ctx, p.tree.Len(), remote); err != nil {
				return err
			}
		}
		return f.scanLocked(ctx, p, owner, fn)
	})
}

// scanLocked iterates a partition's records in key order. The caller holds
// the partition's read lock.
func (f *file) scanLocked(ctx context.Context, p *partition, owner *node, fn func(lake.Record) error) error {
	var scanErr error
	scanned := 0
	bytes := 0
	p.tree.AscendAll(func(k string, v []byte) bool {
		if err := ctx.Err(); err != nil {
			scanErr = err
			return false
		}
		scanned++
		bytes += len(v)
		if err := fn(lake.Record{Key: k, Data: v}); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	owner.counters.AddRecordsScanned(scanned)
	owner.counters.AddBytesRead(bytes)
	return scanErr
}

// Append implements lake.File. Loading is not part of the measured
// experiments, so it is charged no simulated I/O cost.
func (f *file) Append(ctx context.Context, partitionIdx int, recs ...lake.Record) error {
	p, owner, err := f.part(partitionIdx)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := f.access(ctx, owner, partitionIdx, OpAppend, max(len(recs), 1), func(bool) error {
		if owner.transport != nil {
			return owner.transport.Append(ctx, f.name, partitionIdx, recs)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, r := range recs {
			p.tree.Insert(r.Key, r.Data)
			p.bytes += int64(len(r.Key) + len(r.Data) + recordOverheadBytes)
		}
		// Notify under the partition lock: listeners observe appends in
		// the same order scans do (see notifyAppend). Listeners write to
		// OTHER files' partitions only, so lock order is always base →
		// index and cannot cycle.
		f.cluster.notifyAppend(f.name, partitionIdx, recs)
		return nil
	}); err != nil {
		return err
	}
	if owner.transport != nil {
		// Listeners fire after the remote insert, NOT under a partition
		// lock: over a real transport the (insert, notify) pair is no
		// longer atomic with respect to scans, which is why exactly-once
		// online builds require the in-process transport (see
		// ScanWithBarrier).
		f.cluster.notifyAppend(f.name, partitionIdx, recs)
	}
	owner.counters.AddAppend(len(recs))
	return nil
}

// AppendRouted routes each record through the file's partitioner using the
// given partition key and appends it. It is the loader-side convenience for
// files whose partition key differs from the record key.
func AppendRouted(ctx context.Context, f lake.File, partKey lake.Key, rec lake.Record) error {
	p := f.Partitioner().Partition(partKey, f.NumPartitions())
	return f.Append(ctx, p, rec)
}

// Len returns the total number of records across all partitions of the
// named file (tooling/tests helper).
func (c *Cluster) Len(name string) (int, error) {
	c.mu.RLock()
	f, ok := c.files[name]
	c.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", lake.ErrNoSuchFile, name)
	}
	if c.remote {
		recs, _, err := f.remoteTotals()
		return recs, err
	}
	total := 0
	for _, p := range f.parts {
		p.mu.RLock()
		total += p.tree.Len()
		p.mu.RUnlock()
	}
	return total, nil
}

// remoteTotals sums record count and modeled bytes across partitions via
// each owner's transport Stat.
func (f *file) remoteTotals() (int, int64, error) {
	ctx := context.Background()
	recs, bytes := 0, int64(0)
	for i := range f.parts {
		_, owner, err := f.part(i)
		if err != nil {
			return 0, 0, err
		}
		r, b, err := owner.transport.Stat(ctx, f.name, i)
		if err != nil {
			return 0, 0, err
		}
		recs += r
		bytes += b
	}
	return recs, bytes, nil
}

// FileSizeBytes returns the named file's total modeled size in bytes
// (sum of per-partition byte accounting). The lifecycle manager charges a
// structure's residency against Options.StructureBudget with this number.
func (c *Cluster) FileSizeBytes(name string) (int64, error) {
	c.mu.RLock()
	f, ok := c.files[name]
	c.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", lake.ErrNoSuchFile, name)
	}
	return f.SizeBytes(), nil
}

// SizeBytes implements lake.SizedFile: the file's total modeled size.
func (f *file) SizeBytes() int64 {
	if f.cluster.remote {
		_, bytes, err := f.remoteTotals()
		if err != nil {
			return 0
		}
		return bytes
	}
	var total int64
	for _, p := range f.parts {
		p.mu.RLock()
		total += p.bytes
		p.mu.RUnlock()
	}
	return total
}

// Bind marks ctx as executing on the given node, so subsequent accesses are
// charged local or remote accordingly. It satisfies the query engines'
// Topology interface.
func (c *Cluster) Bind(ctx context.Context, nodeID int) context.Context {
	return WithCaller(ctx, nodeID)
}
