// Package lakeharbor is a from-scratch implementation of the LakeHarbor
// data management paradigm and its prototype engine ReDe, reproducing
// "LakeHarbor: Making Structures First-Class Citizens in Data Lakes"
// (Yamada, Kitsuregawa, Goda — ICDE 2024).
//
// LakeHarbor makes structures (indexes) first-class citizens in a data
// lake: data stays raw (schema-on-read), access-method functions are
// registered post hoc, structures are built lazily from those functions,
// and the query engine exploits the fine-grained parallelism the
// structures expose — scalable massively parallel execution (SMPE) —
// instead of the statically-defined scan parallelism of conventional data
// lake engines.
//
// This package is the public facade: an Engine that wires together the
// simulated distributed file system (internal/dfs), the structure builder
// (internal/indexer), and the ReDe executor (internal/core). The most
// important concepts re-exported here:
//
//   - Record, Pointer: the I/O abstraction. Records are raw bytes.
//   - Referencer / Dereferencer: the Reference-Dereference abstraction. A
//     job is an alternating list of them; pre-defined implementations
//     (RangeDeref, LookupDeref, EntryRef, FieldRef, ...) cover the standard
//     indexing schemes.
//   - StructureSpec: a post hoc access-method registration from which the
//     engine lazily builds local or global B-tree indexes.
//   - Execute / ExecutePlain: run a job with SMPE (default 1000 workers
//     per node) or with only the cluster's partitioned parallelism.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package lakeharbor

import (
	"context"
	"io"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/metrics"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/store"
	"lakeharbor/internal/trace"
)

// Re-exported storage types.
type (
	// Record is a unit of raw data (schema-on-read payload).
	Record = lake.Record
	// Pointer locates a record or key range in a distributed file.
	Pointer = lake.Pointer
	// Key is an order-preserving encoded key.
	Key = lake.Key
	// File is a distributed, partitioned record collection.
	File = lake.File
	// BtreeFile is a File supporting range lookups.
	BtreeFile = lake.BtreeFile
	// Partitioner routes partition keys to partitions.
	Partitioner = lake.Partitioner
	// HashPartitioner routes by hash (the default).
	HashPartitioner = lake.HashPartitioner
	// RangePartitioner routes by ordered split points.
	RangePartitioner = lake.RangePartitioner
	// CostModel configures the simulated I/O and network costs.
	CostModel = sim.CostModel
	// MetricsSnapshot reports record accesses, lookups, remote fetches.
	MetricsSnapshot = metrics.Snapshot
)

// Re-exported engine types.
type (
	// Job is a Reference-Dereference data processing job.
	Job = core.Job
	// Stage is one step of a job.
	Stage = core.Stage
	// Referencer produces pointers from a record.
	Referencer = core.Referencer
	// Dereferencer produces records from a pointer.
	Dereferencer = core.Dereferencer
	// Interpreter applies a schema to a raw record on read.
	Interpreter = core.Interpreter
	// Fields is an interpreted record: a read-only view over the raw
	// payload, valid for the current call (see Fields.Get).
	Fields = core.Fields
	// Filter drops records at a Dereferencer.
	Filter = core.Filter
	// TaskCtx is the per-invocation execution context.
	TaskCtx = core.TaskCtx
	// Options tunes job execution (pool size, inline referencers, sinks).
	Options = core.Options
	// Result reports a job execution.
	Result = core.Result
	// RangeDeref reads a key range from a B-tree file.
	RangeDeref = core.RangeDeref
	// LookupDeref fetches records by key through the partitioner.
	LookupDeref = core.LookupDeref
	// ScanDeref scans a file's local partitions.
	ScanDeref = core.ScanDeref
	// EntryRef turns index entries into pointers at the indexed file.
	EntryRef = core.EntryRef
	// FieldRef extracts a field (schema-on-read) and points at a target.
	// Its Encode appends the field's key to dst: func(dst []byte, value
	// string) ([]byte, error), where value is valid for the call only.
	FieldRef = core.FieldRef
	// FuncRef adapts a function as a Referencer.
	FuncRef = core.FuncRef
	// FuncDeref adapts a function as a Dereferencer.
	FuncDeref = core.FuncDeref
	// CarryMode selects multi-way-join context propagation.
	CarryMode = core.CarryMode
	// StructureSpec registers a post hoc access method for lazy index
	// construction.
	StructureSpec = indexer.Spec
	// BuildStatus tracks a background structure build.
	BuildStatus = indexer.BuildStatus
	// StructureManager is the structure lifecycle manager: singleflight
	// builds, budgeted residency, eviction, rebuild-on-demand (see
	// Engine.Structures).
	StructureManager = indexer.Manager
	// StructureStatus describes one managed structure's lifecycle state.
	StructureStatus = indexer.StructureStatus
	// ExecTrace is a job's execution trace snapshot (Result.Trace):
	// per-stage spans and per-node queue/worker/I/O telemetry.
	ExecTrace = trace.Snapshot
	// StageTrace is one stage's span within an ExecTrace.
	StageTrace = trace.StageSnapshot
	// NodeTrace is one node's telemetry within an ExecTrace.
	NodeTrace = trace.NodeSnapshot
	// TraceRegistry retains recent ExecTraces and aggregates them into
	// Prometheus-style metrics (see internal/httpapi's /debug endpoints).
	TraceRegistry = trace.Registry
)

// Permanent reports whether an execution error can never heal by retrying
// (unknown file, bad partition, wrong file kind); the executor fails fast
// on these instead of consuming Options.MaxRetries.
func Permanent(err error) bool { return core.Permanent(err) }

// Re-exported constants.
const (
	// CarryNone, CarryRecord, CarryComposite select what a FieldRef
	// attaches to emitted pointers.
	CarryNone      = core.CarryNone
	CarryRecord    = core.CarryRecord
	CarryComposite = core.CarryComposite
	// LocalIndex and GlobalIndex select the structure partitioning scheme.
	LocalIndex  = indexer.Local
	GlobalIndex = indexer.Global
	// DefaultThreads is the SMPE per-node worker pool size.
	DefaultThreads = core.DefaultThreads
)

// Key encoding helpers (order-preserving).

// KeyInt64 encodes a signed integer key.
func KeyInt64(v int64) Key { return keycodec.Int64(v) }

// KeyFloat64 encodes a float key.
func KeyFloat64(v float64) Key { return keycodec.Float64(v) }

// KeyString encodes a string key (self-delimiting, tuple-safe).
func KeyString(v string) Key { return keycodec.String(v) }

// KeyTuple concatenates encoded keys into a composite key.
func KeyTuple(elems ...Key) Key { return keycodec.Tuple(elems...) }

// NewJob composes a job from seeds and an alternating Dereferencer /
// Referencer list, validating the Reference-Dereference structure.
func NewJob(name string, seeds []Pointer, funcs ...any) (*Job, error) {
	return core.NewJob(name, seeds, funcs...)
}

// Delimited declares an Interpreter for delimited text records — the
// separator and the field names in order. what names the record kind in
// errors. Records with any other number of fields are rejected.
func Delimited(what string, sep byte, names ...string) Interpreter {
	return core.Delimited(what, sep, names...)
}

// NewFields builds the Fields a hand-written Interpreter returns for records
// that are not delimited text: names[i] has values[i].
func NewFields(names, values []string) Fields { return core.NewFields(names, values) }

// Composite builds an Interpreter over composite (multi-way join) records:
// one interpreter per joined segment; a field name two segments share reads
// the most recently joined one.
func Composite(interps ...Interpreter) Interpreter { return core.Composite(interps...) }

// SeedRange builds seed pointers for a key-range dereference over an index
// file, routing per-partition when the index is range-partitioned and
// broadcasting otherwise.
func SeedRange(e *Engine, file string, lo, hi Key) ([]Pointer, error) {
	return core.SeedRange(e.Cluster(), file, lo, hi)
}

// HDDCostModel is the benchmark cost model: a scaled stand-in for the
// paper's HDD testbed (see internal/sim).
func HDDCostModel() CostModel { return sim.HDDProfile() }

// Config describes an Engine.
type Config struct {
	// Nodes is the simulated cluster size (default 1).
	Nodes int
	// Cost models I/O and network costs; the zero model is free/instant.
	Cost CostModel
	// DefaultPartitions is the partition count used when CreateFile is
	// called with partitions == 0 (default 2×Nodes).
	DefaultPartitions int
	// StructureBudget caps the total modeled bytes of resident built
	// structures; cold ready structures are evicted (and transparently
	// rebuilt on demand) to stay within it. 0 means unlimited.
	StructureBudget int64
}

// Engine is a LakeHarbor instance: simulated cluster storage, a structure
// lifecycle manager, and the ReDe executor.
type Engine struct {
	cluster  *dfs.Cluster
	manager  *indexer.Manager
	defParts int
}

// New creates an Engine.
func New(cfg Config) *Engine {
	cluster := dfs.NewCluster(dfs.Config{Nodes: cfg.Nodes, Cost: cfg.Cost})
	defParts := cfg.DefaultPartitions
	if defParts <= 0 {
		defParts = 2 * cluster.NumNodes()
	}
	return &Engine{
		cluster: cluster,
		manager: indexer.NewManager(context.Background(), cluster, indexer.ManagerOptions{
			StructureBudget: cfg.StructureBudget,
		}),
		defParts: defParts,
	}
}

// Cluster exposes the underlying storage cluster (catalog + topology).
func (e *Engine) Cluster() *dfs.Cluster { return e.cluster }

// Nodes returns the cluster size.
func (e *Engine) Nodes() int { return e.cluster.NumNodes() }

// CreateFile registers a new B-tree file (partitions == 0 uses the
// engine default; p == nil uses hash partitioning).
func (e *Engine) CreateFile(name string, partitions int, p Partitioner) (File, error) {
	if partitions <= 0 {
		partitions = e.defParts
	}
	if p == nil {
		p = lake.HashPartitioner{}
	}
	return e.cluster.CreateFile(name, dfs.Btree, partitions, p)
}

// File resolves a catalog name.
func (e *Engine) File(name string) (File, error) { return e.cluster.File(name) }

// Ingest appends one raw record, routed by partition key. Every built
// structure over the file indexes it too (writer-pays maintenance, §III-D).
func (e *Engine) Ingest(ctx context.Context, file string, partKey Key, rec Record) error {
	f, err := e.cluster.File(file)
	if err != nil {
		return err
	}
	return dfs.AppendRouted(ctx, f, partKey, rec)
}

// RegisterStructure records a post hoc access-method definition. No work
// happens until EnsureStructure or BuildStructures (lazy construction,
// paper §III-D).
func (e *Engine) RegisterStructure(spec StructureSpec) error {
	return e.manager.Register(spec)
}

// EnsureStructure builds the named structure if needed and waits until it
// is queryable. Concurrent calls share one build; an evicted structure is
// transparently rebuilt.
func (e *Engine) EnsureStructure(ctx context.Context, name string) error {
	return e.manager.Ensure(ctx, name)
}

// BuildStructures starts every registered structure build in the
// background and waits for all of them.
func (e *Engine) BuildStructures(ctx context.Context) error {
	return e.manager.EnsureAll(ctx)
}

// Structures exposes the engine's structure lifecycle manager: per-spec
// state (absent → building → ready → evicted), budgeted residency, and
// lifecycle counters. Attach it to an httpapi.Server to serve
// /v1/structures.
func (e *Engine) Structures() *indexer.Manager { return e.manager }

// Execute runs a job with SMPE (Algorithm 1): per-node queues, a worker
// pool of Options.Threads goroutines per node (default 1000), inline
// referencers, dynamic task decomposition.
func (e *Engine) Execute(ctx context.Context, job *Job, opts Options) (*Result, error) {
	return core.ExecuteSMPE(ctx, job, e.cluster, e.cluster, opts)
}

// ExecutePlain runs a job with SMPE disabled: one worker per node, leaving
// only the cluster's partitioned parallelism (the paper's "ReDe w/o SMPE").
func (e *Engine) ExecutePlain(ctx context.Context, job *Job, opts Options) (*Result, error) {
	return core.ExecutePlain(ctx, job, e.cluster, e.cluster, opts)
}

// Metrics returns the cluster-wide access counters (records read/scanned,
// lookups, remote fetches).
func (e *Engine) Metrics() MetricsSnapshot { return e.cluster.TotalMetrics() }

// Snapshot writes a durable, checksummed snapshot of every file to w
// (see internal/store for the format).
func (e *Engine) Snapshot(ctx context.Context, w io.Writer) error {
	return store.WriteSnapshot(ctx, e.cluster, nil, w)
}

// Restore loads a snapshot into the engine; files that already exist make
// it fail.
func (e *Engine) Restore(ctx context.Context, r io.Reader) error {
	_, err := store.ReadSnapshot(ctx, r, e.cluster)
	return err
}
