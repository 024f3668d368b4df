// Package lake defines ReDe's I/O abstraction: the Record, Pointer, and File
// interfaces that separate the query engine from concrete storage, exactly as
// described in the LakeHarbor paper (§III-B).
//
// A Record is a unit of raw data; its payload is uninterpreted bytes so that
// schemas are applied on read (schema-on-read) by user-supplied interpreters.
// A Pointer locates a Record: it names a File, carries a partition key that a
// Partitioner maps to a partition, and an in-partition key (optionally a key
// range for B-tree files). A File is a distributed collection of Records; a
// BtreeFile can additionally locate all Records within a key range.
package lake

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// Key is an order-preserving encoded key (see internal/keycodec). Keys
// compare byte-wise; an empty key is valid and sorts first.
type Key = string

// Record is the unit of data ReDe reads and writes. Data is raw bytes whose
// schema is interpreted on read.
type Record struct {
	Key  Key    // in-partition key the record is stored under
	Data []byte // raw payload (schema-on-read)
}

// Clone returns a deep copy of the record, so callers may retain it beyond
// the lifetime of the buffer it was read from.
func (r Record) Clone() Record {
	d := make([]byte, len(r.Data))
	copy(d, r.Data)
	return Record{Key: r.Key, Data: d}
}

// Pointer locates a Record (or a range of Records) in a distributed File.
//
// Partition routing follows the paper: the File's Partitioner maps PartKey to
// a partition. A Pointer without partition information (HasPart reports
// false) is *broadcast*: the executor replicates it to every partition. That
// is how broadcast joins are expressed in Reference-Dereference.
type Pointer struct {
	File    string // name of the target File in the catalog
	PartKey Key    // partition key, fed to the File's Partitioner
	NoPart  bool   // true = no partition info: broadcast to all partitions
	Key     Key    // in-partition key, or start of a range
	EndKey  Key    // inclusive end of a range; empty means point lookup
	// Carry is optional context attached by a Referencer for multi-way
	// joins: a segment list (see EncodeSegments) holding the partial join
	// result. A Dereferencer configured to combine appends each fetched
	// record to it.
	Carry []byte
}

// IsRange reports whether the pointer addresses a key range rather than a
// single key.
func (p Pointer) IsRange() bool { return p.EndKey != "" }

// String renders the pointer for logs and errors.
func (p Pointer) String() string {
	part := fmt.Sprintf("part=%q", p.PartKey)
	if p.NoPart {
		part = "broadcast"
	}
	if p.IsRange() {
		return fmt.Sprintf("Pointer{%s %s key=[%q,%q]}", p.File, part, p.Key, p.EndKey)
	}
	return fmt.Sprintf("Pointer{%s %s key=%q}", p.File, part, p.Key)
}

// Errors returned by File implementations.
var (
	// ErrNoSuchFile reports a catalog miss.
	ErrNoSuchFile = errors.New("lake: no such file")
	// ErrNoSuchPartition reports a partition index out of range.
	ErrNoSuchPartition = errors.New("lake: no such partition")
)

// File is a distributed set of Records. A File is split into partitions; a
// Record is located by mapping a Pointer's partition key through the File's
// Partitioner and then looking up the in-partition key.
//
// Lookup returns every record stored under key in the given partition
// (files may hold duplicate keys, e.g. secondary indexes). A miss returns an
// empty slice and a nil error. Implementations must be safe for concurrent
// use: SMPE issues thousands of lookups in parallel.
type File interface {
	// Name returns the catalog name of the file.
	Name() string
	// NumPartitions returns the number of partitions the file is split into.
	NumPartitions() int
	// Partitioner returns the partitioner that routes partition keys.
	Partitioner() Partitioner
	// Lookup returns all records stored under key in partition.
	Lookup(ctx context.Context, partition int, key Key) ([]Record, error)
	// Scan calls fn for every record in partition, in storage order.
	// If fn returns an error the scan stops and returns it.
	Scan(ctx context.Context, partition int, fn func(Record) error) error
	// Append adds records to partition. It is used by loaders and by the
	// background structure builder, not by queries.
	Append(ctx context.Context, partition int, recs ...Record) error
}

// BtreeFile is a File whose partitions are ordered by key, so it can also
// locate the set of Records between two Pointers (an inclusive key range).
type BtreeFile interface {
	File
	// LookupRange returns all records with lo <= key <= hi in partition,
	// in ascending key order.
	LookupRange(ctx context.Context, partition int, lo, hi Key) ([]Record, error)
}

// BatchFile is a File that serves many point lookups in one call, appending
// what its lookups — and its range lookups, when it is also a BtreeFile —
// find onto a record array the caller owns. The executor's
// dereference path uses it to amortize per-lookup overheads — queue
// admission, gate admission, tree descent, network round trips — across a
// whole pointer batch, and to fill one array per task instead of a slice per
// call.
type BatchFile interface {
	File
	// AppendLookup is Lookup appending onto dst, with Lookup's admission and
	// accounting.
	AppendLookup(ctx context.Context, dst []Record, partition int, key Key) ([]Record, error)
	// AppendLookupBatch appends the records stored under every key onto dst,
	// keys[i]'s after keys[i-1]'s, under one admission. When ends is non-nil
	// (one per key), ends[i] is set to the length of the result after
	// keys[i]'s records.
	AppendLookupBatch(ctx context.Context, dst []Record, partition int, keys []Key, ends []int) ([]Record, error)
	// AppendLookupRange is BtreeFile's LookupRange appending onto dst, with
	// its admission and accounting.
	AppendLookupRange(ctx context.Context, dst []Record, partition int, lo, hi Key) ([]Record, error)
}

// LookupBatch returns, for each keys[i], the records stored under that key
// in partition, aligned with keys (a miss yields a nil slice at that
// position): AppendLookupBatch onto an array sized for one record per key,
// cut into one slice per key. Callers batch unconditionally; files opt in to
// the amortization by implementing BatchFile.
func LookupBatch(ctx context.Context, f File, partition int, keys []Key) ([][]Record, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	ends := make([]int, len(keys))
	recs, err := AppendLookupBatch(ctx, f, make([]Record, 0, len(keys)), partition, keys, ends)
	if err != nil {
		return nil, err
	}
	return Groups(recs, ends), nil
}

// Groups cuts a batch appended onto an empty array — key i's records end at
// ends[i] — into one slice per key, nil for a key with none.
func Groups(recs []Record, ends []int) [][]Record {
	out := make([][]Record, len(ends))
	start := 0
	for i, end := range ends {
		if end > start {
			out[i] = recs[start:end:end] // capacity clipped: appending cannot reach the next key's
		}
		start = end
	}
	return out
}

// AppendLookupBatch is BatchFile's AppendLookupBatch for any File: one
// Lookup per key when f is not a BatchFile. On error dst is returned at its
// own length, nothing written past it.
func AppendLookupBatch(ctx context.Context, f File, dst []Record, partition int, keys []Key, ends []int) ([]Record, error) {
	if bf, ok := f.(BatchFile); ok {
		return bf.AppendLookupBatch(ctx, dst, partition, keys, ends)
	}
	n := len(dst)
	for i, k := range keys {
		recs, err := f.Lookup(ctx, partition, k)
		if err != nil {
			clear(dst[n:])
			return dst[:n], err
		}
		dst = append(dst, recs...)
		if ends != nil {
			ends[i] = len(dst)
		}
	}
	return dst, nil
}

// AppendLookup is Lookup appending onto dst: the file's own append form
// when it is a BatchFile. On error dst is returned unchanged.
func AppendLookup(ctx context.Context, f File, dst []Record, partition int, key Key) ([]Record, error) {
	if bf, ok := f.(BatchFile); ok {
		return bf.AppendLookup(ctx, dst, partition, key)
	}
	recs, err := f.Lookup(ctx, partition, key)
	if err != nil {
		return dst, err
	}
	return append(dst, recs...), nil
}

// AppendLookupRange is LookupRange appending onto dst: the file's own append
// form when it is a BatchFile. On error dst is returned unchanged.
func AppendLookupRange(ctx context.Context, f BtreeFile, dst []Record, partition int, lo, hi Key) ([]Record, error) {
	if bf, ok := f.(BatchFile); ok {
		return bf.AppendLookupRange(ctx, dst, partition, lo, hi)
	}
	recs, err := f.LookupRange(ctx, partition, lo, hi)
	if err != nil {
		return dst, err
	}
	return append(dst, recs...), nil
}

// SizedFile is a File that can report its modeled storage footprint. The
// structure lifecycle manager charges resident structures against a memory
// budget with it; files that cannot report a size are treated as free.
type SizedFile interface {
	File
	// SizeBytes returns the file's total modeled size in bytes.
	SizeBytes() int64
}

// SizeBytes returns f's modeled size when it implements SizedFile, and 0
// otherwise.
func SizeBytes(f File) int64 {
	if sf, ok := f.(SizedFile); ok {
		return sf.SizeBytes()
	}
	return 0
}

// BarrierScanner is a File whose Scan can run a barrier callback at the
// exact point where the scan's snapshot is pinned: everything appended (and
// notified to append listeners) before the barrier runs is visible to the
// scan, everything after is not. Online structure builds use the barrier to
// hand responsibility for concurrent appends from the build scan to the
// maintainer without dropping or duplicating records.
type BarrierScanner interface {
	File
	// ScanWithBarrier is Scan with barrier invoked after the scan's
	// snapshot is pinned and before the first record is delivered.
	ScanWithBarrier(ctx context.Context, partition int, barrier func(), fn func(Record) error) error
}

// ScanWithBarrier scans a partition of f, invoking barrier at the snapshot
// point when f supports it. Files without barrier support run the barrier
// immediately before a plain Scan — correct only when no appends race the
// scan, which is why the builder's exactly-once guarantee is documented as
// requiring a BarrierScanner.
func ScanWithBarrier(ctx context.Context, f File, partition int, barrier func(), fn func(Record) error) error {
	if bs, ok := f.(BarrierScanner); ok {
		return bs.ScanWithBarrier(ctx, partition, barrier, fn)
	}
	if barrier != nil {
		barrier()
	}
	return f.Scan(ctx, partition, fn)
}

// Partitioner maps a partition key to a partition index in [0, n).
type Partitioner interface {
	// Partition returns the partition index for key given n partitions.
	Partition(key Key, n int) int
	// Name identifies the partitioner ("hash", "range", ...) for catalogs
	// and debug output.
	Name() string
}

// HashPartitioner routes keys by FNV-1a hash. The zero value is ready to use.
type HashPartitioner struct{}

// Partition implements Partitioner.
func (HashPartitioner) Partition(key Key, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}

// Name implements Partitioner.
func (HashPartitioner) Name() string { return "hash" }

// RangePartitioner routes keys by ordered split points: partition i holds
// keys in [Bounds[i-1], Bounds[i]), with the first partition open below and
// the last open above. Bounds must be sorted ascending; there are
// len(Bounds)+1 partitions.
type RangePartitioner struct {
	Bounds []Key
}

// NewRangePartitioner returns a RangePartitioner over the given split
// points, sorting them if necessary.
func NewRangePartitioner(bounds ...Key) RangePartitioner {
	b := make([]Key, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return RangePartitioner{Bounds: b}
}

// Partition implements Partitioner. n is clamped to the partitioner's own
// partition count (len(Bounds)+1) so misconfigured files still route inside
// range.
func (r RangePartitioner) Partition(key Key, n int) int {
	i := sort.Search(len(r.Bounds), func(i int) bool { return key < r.Bounds[i] })
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Name implements Partitioner.
func (r RangePartitioner) Name() string { return "range" }

// PartitionsOverlapping returns the partition indices whose key range
// intersects [lo, hi] given n partitions. It lets a range dereference touch
// only the partitions that can hold matches when the file is
// range-partitioned by the lookup key. A degenerate range (lo > hi) can
// hold no matches and returns nil rather than silently swapping the bounds
// into a range the caller never asked for.
func (r RangePartitioner) PartitionsOverlapping(lo, hi Key, n int) []int {
	if lo > hi {
		return nil
	}
	first := r.Partition(lo, n)
	last := r.Partition(hi, n)
	out := make([]int, 0, last-first+1)
	for i := first; i <= last && i < n; i++ {
		out = append(out, i)
	}
	return out
}

// Catalog is a name → File registry. Implementations must be safe for
// concurrent readers.
type Catalog interface {
	// File returns the named file, or ErrNoSuchFile.
	File(name string) (File, error)
}

// ResolvePartition routes ptr to a partition of f, honoring the broadcast
// convention: it returns (0, true) when the pointer has no partition
// information, meaning "all partitions".
func ResolvePartition(f File, ptr Pointer) (partition int, broadcast bool) {
	if ptr.NoPart {
		return 0, true
	}
	return f.Partitioner().Partition(ptr.PartKey, f.NumPartitions()), false
}
