// Package dfs is the "simple distributed file system" the paper's authors
// built for ReDe in place of HDFS (§III-E: "HDFS is not well-optimized for
// non-scan accesses such as lookups").
//
// A Cluster is the catalog over N nodes: every file is split into
// partitions, and partition i lives on node i mod N. Every node is a
// NodeTransport, and metrics.Counters record every access to it. NewCluster
// simulates a shared-nothing cluster inside one process: each node is a sim
// node holding its partition trees behind a sim.Gate that bounds concurrent
// I/Os and charges modeled latencies. NewClusterWithTransports puts the same
// catalog over other transports, such as networked nodes. Files implement
// the lake.File / lake.BtreeFile interfaces, so the ReDe engine, the
// baseline engine, and the structure builder all run against the same
// storage.
//
// Records returned by lookups and scans are shared, not copied; callers must
// treat Record.Data as read-only.
package dfs

import (
	"context"
	"fmt"
	"maps"
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

// Cluster is a shared-nothing storage cluster: a file catalog over nodes.
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

// notifyAppend fans an append out to the listeners. A sim node calls it on
// its home cluster while the appended partition's write lock is still held
// (any other transport's appends are notified by file.Append after the
// insert, without that guarantee), so for any one
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
	counters metrics.Counters
	// transport serves the node's data operations: the node's own sim node
	// on a NewCluster cluster (see own), any NodeTransport otherwise.
	transport NodeTransport
}

// NewCluster creates a cluster of cfg.Nodes sim nodes (minimum 1).
func NewCluster(cfg Config) *Cluster {
	c := &Cluster{cost: cfg.Cost, files: make(map[string]*file)}
	for i := 0; i < max(cfg.Nodes, 1); i++ {
		s := &simNode{id: i, gate: sim.NewGate(cfg.Cost), home: c}
		s.files.Store(&map[string]*simFile{})
		c.nodes = append(c.nodes, &node{id: i, transport: s})
	}
	return c
}

// own returns n's sim node when n is one of c's own sim nodes, nil
// otherwise. Only such a node gives an exact ScanWithBarrier, tells c's
// listeners about an append under the partition's write lock, and has a
// gate; any other node is reached over a transport, as an RPC.
func (c *Cluster) own(n *node) *simNode {
	if s, ok := n.transport.(*simNode); ok && s.home == c {
		return s
	}
	return nil
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
// i mod NumNodes, matching the paper's round-robin distribution. The create
// is broadcast to every distinct node transport before the file is
// registered, so a node failure leaves the catalog untouched.
func (c *Cluster) CreateFile(name string, kind Kind, partitions int, p lake.Partitioner) (lake.File, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("dfs: file %q: partitions must be >= 1, got %d", name, partitions)
	}
	if p == nil {
		return nil, fmt.Errorf("dfs: file %q: nil partitioner", name)
	}
	c.mu.RLock()
	_, exists := c.files[name]
	c.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if err := c.broadcastCreate(name, kind, partitions, p); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	f := &file{cluster: c, name: name, kind: kind, partitioner: p, partitions: partitions}
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
// structure builder when replacing an index), then from every node. Dropping
// a file that does not exist is a no-op and does not bump the catalog
// version. A handle to the file taken before the drop answers every later
// access with lake.ErrNoSuchFile.
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
	c.broadcastDrop(name)
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

// NodeGate returns node i's I/O gate, or nil when node i is not one of the
// cluster's own sim nodes or the cluster's cost model is free (a free gate
// admits everything instantly and has nothing to hook). Chaos injection uses
// it to squeeze a node's queue depth.
func (c *Cluster) NodeGate(i int) *sim.Gate {
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	if s := c.own(c.nodes[i]); s != nil {
		return s.gate
	}
	return nil
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

// file implements lake.BtreeFile: catalog metadata, with each partition's
// data behind its owner node's transport.
type file struct {
	cluster     *Cluster
	name        string
	kind        Kind
	partitioner lake.Partitioner
	partitions  int
}

// Name implements lake.File.
func (f *file) Name() string { return f.name }

// NumPartitions implements lake.File.
func (f *file) NumPartitions() int { return f.partitions }

// Partitioner implements lake.File.
func (f *file) Partitioner() lake.Partitioner { return f.partitioner }

// Kind returns whether the file is a heap or btree file.
func (f *file) Kind() Kind { return f.kind }

func (f *file) owner(i int) (*node, error) {
	if i < 0 || i >= f.partitions {
		return nil, fmt.Errorf("%w: %q/%d", lake.ErrNoSuchPartition, f.name, i)
	}
	return f.cluster.nodes[f.cluster.OwnerNode(i)], nil
}

// AppendLookupBatch implements lake.BatchFile: the whole batch is served
// under ONE gate admission — the cost model charges full latency for the
// first key and the marginal BatchPerKey for every key after it (seek
// amortization) — and, when the caller is remote, the batch is priced as a
// single network message. I/O attribution mirrors that (one local/remote
// observation), but the fault hook sees the batch's key count: the batch
// stands in for len(keys) point lookups, so a heal budget is consumed the
// same way batched and unbatched.
func (f *file) AppendLookupBatch(ctx context.Context, dst []lake.Record, partitionIdx int, keys []lake.Key, ends []int) ([]lake.Record, error) {
	if len(keys) == 0 {
		return dst, nil
	}
	return f.read(ctx, dst, partitionIdx, OpLookupBatch, len(keys), func(t NodeTransport, dst []lake.Record) ([]lake.Record, error) {
		return AppendLookupBatch(ctx, t, dst, f.name, partitionIdx, keys, ends)
	})
}

// Lookup implements lake.File: AppendLookup onto nil.
func (f *file) Lookup(ctx context.Context, partitionIdx int, key lake.Key) ([]lake.Record, error) {
	return f.AppendLookup(ctx, nil, partitionIdx, key)
}

// AppendLookup implements lake.BatchFile: one gate admission.
func (f *file) AppendLookup(ctx context.Context, dst []lake.Record, partitionIdx int, key lake.Key) ([]lake.Record, error) {
	return f.read(ctx, dst, partitionIdx, OpLookup, 1, func(t NodeTransport, dst []lake.Record) ([]lake.Record, error) {
		return AppendLookup(ctx, t, dst, f.name, partitionIdx, key)
	})
}

// LookupRange implements lake.BtreeFile. It returns every record with
// lo <= key <= hi in the partition, in key order.
func (f *file) LookupRange(ctx context.Context, partitionIdx int, lo, hi lake.Key) ([]lake.Record, error) {
	return f.AppendLookupRange(ctx, nil, partitionIdx, lo, hi)
}

// AppendLookupRange implements lake.BatchFile: one gate admission.
func (f *file) AppendLookupRange(ctx context.Context, dst []lake.Record, partitionIdx int, lo, hi lake.Key) ([]lake.Record, error) {
	if f.kind != Btree {
		return dst, lake.AsPermanent(fmt.Errorf("dfs: file %q is not a btree file", f.name))
	}
	return f.read(ctx, dst, partitionIdx, OpRange, 1, func(t NodeTransport, dst []lake.Record) ([]lake.Record, error) {
		return AppendLookupRange(ctx, t, dst, f.name, partitionIdx, lo, hi)
	})
}

// read runs one lookup access of a partition, in which fetch appends the
// records onto dst through the owner's transport, and adds the access and
// its records to the owner's counters.
func (f *file) read(ctx context.Context, dst []lake.Record, partitionIdx int, op Op, keys int, fetch func(NodeTransport, []lake.Record) ([]lake.Record, error)) ([]lake.Record, error) {
	owner, err := f.owner(partitionIdx)
	if err != nil {
		return dst, err
	}
	if op == OpLookupBatch {
		owner.counters.AddBatchLookup(keys)
	} else {
		owner.counters.AddLookup()
	}
	start := len(dst)
	if err := f.access(ctx, owner, partitionIdx, op, keys, func() (err error) {
		dst, err = fetch(owner.transport, dst)
		return err
	}); err != nil {
		return dst, err
	}
	bytes := 0
	for _, r := range dst[start:] {
		bytes += len(r.Data)
	}
	owner.counters.AddRecordsRead(len(dst) - start)
	owner.counters.AddBytesRead(bytes)
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
	owner, err := f.owner(partitionIdx)
	if err != nil {
		return err
	}
	scanned, bytes := 0, 0
	count := func(r lake.Record) error {
		scanned++
		bytes += len(r.Data)
		return fn(r)
	}
	err = f.access(ctx, owner, partitionIdx, OpScan, 1, func() error {
		if s := f.cluster.own(owner); s != nil {
			return s.scan(ctx, f.name, partitionIdx, barrier, count)
		}
		// Degraded mode: over any other transport there is no shared
		// partition lock to make (barrier, first record) atomic with
		// appends, so this is barrier-then-scan. Appends racing the
		// scan may be seen by both the barrier-side listener and the
		// scan; exactly-once online builds therefore require the
		// cluster's own sim nodes.
		if barrier != nil {
			barrier()
		}
		return owner.transport.Scan(ctx, f.name, partitionIdx, count)
	})
	owner.counters.AddRecordsScanned(scanned)
	owner.counters.AddBytesRead(bytes)
	return err
}

// Append implements lake.File. Loading is not part of the measured
// experiments, so it is charged no simulated I/O cost.
func (f *file) Append(ctx context.Context, partitionIdx int, recs ...lake.Record) error {
	owner, err := f.owner(partitionIdx)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := f.access(ctx, owner, partitionIdx, OpAppend, max(len(recs), 1), func() error {
		return owner.transport.Append(ctx, f.name, partitionIdx, recs)
	}); err != nil {
		return err
	}
	if f.cluster.own(owner) == nil {
		// Listeners fire after the remote insert, NOT under a partition
		// lock: over any other transport the (insert, notify) pair is no
		// longer atomic with respect to scans, which is why exactly-once
		// online builds require the cluster's own sim nodes (see
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
	recs, _, err := f.stat()
	return recs, err
}

// stat sums record count and modeled bytes across partitions via each
// owner's transport Stat.
func (f *file) stat() (int, int64, error) {
	recs, bytes := 0, int64(0)
	for i := 0; i < f.partitions; i++ {
		r, b, err := f.cluster.nodes[f.cluster.OwnerNode(i)].transport.Stat(context.Background(), f.name, i)
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
	_, bytes, err := f.stat()
	if err != nil {
		return 0
	}
	return bytes
}

// Bind marks ctx as executing on the given node, so subsequent accesses are
// charged local or remote accordingly. It satisfies the query engines'
// Topology interface.
func (c *Cluster) Bind(ctx context.Context, nodeID int) context.Context {
	return WithCaller(ctx, nodeID)
}

// simNode is one in-process storage node: the partition trees of the files
// it holds and the sim.Gate that charges their modeled I/O. NewCluster gives
// every node one, and it serves the node's data operations as any
// NodeTransport does — a networked node server hosts one through Local.
//
// Like every transport it resolves a file by name on each access, so a file
// dropped from the node answers lake.ErrNoSuchFile at once. The file map is
// copy-on-write behind an atomic pointer: readers take no shared lock.
type simNode struct {
	id   int
	gate *sim.Gate
	// home is the cluster that made the node. Its listeners hear of every
	// append under the partition's write lock, whichever cluster or server
	// sent it (see notifyAppend).
	home  *Cluster
	mu    sync.Mutex // serialises CreateFile/DropFile
	files atomic.Pointer[map[string]*simFile]
}

type simFile struct {
	kind  Kind
	parts []*partition
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

var _ BatchTransport = (*simNode)(nil)

// remote reports whether the gate charges ctx's caller a network round trip.
func (s *simNode) remote(ctx context.Context) bool {
	if s.gate == nil {
		return false // a free gate charges nothing: leave ctx unsearched
	}
	caller := CallerNode(ctx)
	return caller >= 0 && caller != s.id
}

func (s *simNode) part(file string, i int) (*simFile, *partition, error) {
	f := (*s.files.Load())[file]
	if f == nil {
		return nil, nil, fmt.Errorf("%w: %q", lake.ErrNoSuchFile, file)
	}
	if i < 0 || i >= len(f.parts) {
		return nil, nil, fmt.Errorf("%w: %q/%d", lake.ErrNoSuchPartition, file, i)
	}
	return f, f.parts[i], nil
}

func (s *simNode) CreateFile(_ context.Context, name string, kind Kind, partitions int, _ lake.Partitioner) error {
	if partitions < 1 {
		return fmt.Errorf("dfs: file %q: partitions must be >= 1, got %d", name, partitions)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	files := maps.Clone(*s.files.Load())
	if files[name] != nil {
		return fmt.Errorf("dfs: file %q already exists", name)
	}
	f := &simFile{kind: kind, parts: make([]*partition, partitions)}
	for i := range f.parts {
		f.parts[i] = &partition{tree: btree.New()}
	}
	files[name] = f
	s.files.Store(&files)
	return nil
}

func (s *simNode) DropFile(_ context.Context, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	files := maps.Clone(*s.files.Load())
	delete(files, name)
	s.files.Store(&files)
	return nil
}

func (s *simNode) Lookup(ctx context.Context, file string, partition int, key lake.Key) ([]lake.Record, error) {
	return s.AppendLookup(ctx, nil, file, partition, key)
}

func (s *simNode) LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	return LookupBatch(ctx, s, file, partition, keys)
}

func (s *simNode) LookupRange(ctx context.Context, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	return s.AppendLookupRange(ctx, nil, file, partition, lo, hi)
}

func (s *simNode) AppendLookup(ctx context.Context, dst []lake.Record, file string, partition int, key lake.Key) ([]lake.Record, error) {
	_, p, err := s.part(file, partition)
	if err != nil {
		return dst, err
	}
	if err := s.gate.Lookup(ctx, s.remote(ctx)); err != nil {
		return dst, err
	}
	p.mu.RLock()
	c := p.tree.Cursor()
	c.Visit(key, func(v []byte) { dst = append(dst, lake.Record{Key: key, Data: v}) })
	p.mu.RUnlock()
	return dst, nil
}

func (s *simNode) AppendLookupBatch(ctx context.Context, dst []lake.Record, file string, partition int, keys []lake.Key, ends []int) ([]lake.Record, error) {
	_, p, err := s.part(file, partition)
	if err != nil {
		return dst, err
	}
	if err := s.gate.LookupBatch(ctx, len(keys), s.remote(ctx)); err != nil {
		return dst, err
	}
	p.mu.RLock()
	c := p.tree.Cursor()
	for i, k := range keys {
		c.Visit(k, func(v []byte) { dst = append(dst, lake.Record{Key: k, Data: v}) })
		if ends != nil {
			ends[i] = len(dst)
		}
	}
	p.mu.RUnlock()
	return dst, nil
}

func (s *simNode) AppendLookupRange(ctx context.Context, dst []lake.Record, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	f, p, err := s.part(file, partition)
	if err != nil {
		return dst, err
	}
	if f.kind != Btree {
		return dst, lake.AsPermanent(fmt.Errorf("dfs: file %q is not a btree file", file))
	}
	if err := s.gate.Lookup(ctx, s.remote(ctx)); err != nil {
		return dst, err
	}
	p.mu.RLock()
	p.tree.Ascend(lo, hi, func(k string, v []byte) bool {
		dst = append(dst, lake.Record{Key: k, Data: v})
		return true
	})
	p.mu.RUnlock()
	return dst, nil
}

func (s *simNode) Scan(ctx context.Context, file string, partition int, fn func(lake.Record) error) error {
	return s.scan(ctx, file, partition, nil, fn)
}

// scan is Scan with file.ScanWithBarrier's guarantee: a non-nil barrier runs
// under the partition's read lock, before the first record is delivered.
func (s *simNode) scan(ctx context.Context, file string, partition int, barrier func(), fn func(lake.Record) error) error {
	_, p, err := s.part(file, partition)
	if err != nil {
		return err
	}
	p.mu.RLock()
	if n := p.tree.Len(); barrier == nil {
		// A plain scan is charged before it holds the read lock, so
		// appends to the partition are not held up for its modeled
		// service time.
		p.mu.RUnlock()
		err = s.gate.Scan(ctx, n, s.remote(ctx))
		p.mu.RLock()
	} else {
		barrier()
		// Admission happens under the read lock here: releasing it to
		// charge the gate would let appends slip between the barrier
		// and the iteration, which is exactly the ambiguity the
		// barrier removes. Builds therefore block concurrent appends
		// to the partition for the scan's modeled service time.
		err = s.gate.Scan(ctx, n, s.remote(ctx))
	}
	defer p.mu.RUnlock()
	if err != nil {
		return err
	}
	var scanErr error
	p.tree.AscendAll(func(k string, v []byte) bool {
		if scanErr = ctx.Err(); scanErr == nil {
			scanErr = fn(lake.Record{Key: k, Data: v})
		}
		return scanErr == nil
	})
	return scanErr
}

// Append inserts recs and, still under the partition's write lock, tells
// the home cluster's listeners about them (see notifyAppend). Listeners
// write to OTHER files' partitions only, so lock order is always base →
// index and cannot cycle.
func (s *simNode) Append(_ context.Context, file string, partition int, recs []lake.Record) error {
	_, p, err := s.part(file, partition)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range recs {
		p.tree.Insert(r.Key, r.Data)
		p.bytes += int64(len(r.Key) + len(r.Data) + recordOverheadBytes)
	}
	s.home.notifyAppend(file, partition, recs)
	return nil
}

func (s *simNode) Stat(_ context.Context, file string, partition int) (int, int64, error) {
	_, p, err := s.part(file, partition)
	if err != nil {
		return 0, 0, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.tree.Len(), p.bytes, nil
}

func (s *simNode) Close() error { return nil }
