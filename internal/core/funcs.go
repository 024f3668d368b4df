package core

import (
	"fmt"

	"lakeharbor/internal/lake"
)

// This file holds the system-provided Referencers and Dereferencers.
// Following the paper (§III-B "Usability"), functions that implement the
// standard indexing schemes are pre-defined and reusable: in most jobs users
// only pick functions from here, supply an Interpreter per file for
// schema-on-read, optionally a Filter per Dereferencer, and compose the
// list. The functions are per-file, not per-job.

// RangeDeref is the paper's Dereferencer-0: it takes a pointer carrying a
// key range and reads all matching entries from a B-tree file. A broadcast
// pointer (the usual case for a range over a *local* secondary index, which
// is not partitioned by the indexed key) is applied to the node's local
// partitions; a routed pointer is applied to the partition its partition key
// maps to.
type RangeDeref struct {
	// File is the catalog name of the BtreeFile to read.
	File string
	// Filter optionally drops records before they flow on. When Combine
	// is set, the filter sees the combined record and can therefore
	// evaluate predicates across the partial join result.
	Filter Filter
	// Combine appends each fetched record to the pointer's carried
	// context, emitting composite (segment-list) records for multi-way
	// joins.
	Combine bool
}

// Name implements Dereferencer.
func (d RangeDeref) Name() string { return "RangeDeref(" + d.File + ")" }

// Deref implements Dereferencer.
func (d RangeDeref) Deref(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	f, err := tc.Catalog.File(d.File)
	if err != nil {
		return nil, err
	}
	bf, ok := f.(lake.BtreeFile)
	if !ok {
		return nil, lake.AsPermanent(fmt.Errorf("core: %s: file is not a BtreeFile", d.Name()))
	}
	lo, hi := ptr.Key, ptr.EndKey
	if hi == "" {
		hi = lo
	}
	var out []lake.Record
	for _, p := range targetPartitions(tc, f, ptr) {
		recs, err := bf.LookupRange(tc.Ctx, p, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", d.Name(), err)
		}
		out = append(out, recs...)
	}
	out = combine(d.Combine, ptr, out)
	return applyFilter(d.Filter, out)
}

// LookupDeref is the paper's Dereferencer-1/-2/-3: it takes a pointer and
// fetches the records stored under its key, routing through the file's
// partitioner (possibly a cross-partition, remote fetch). A broadcast
// pointer probes the node's local partitions — that is how a broadcast join
// probes every partition.
type LookupDeref struct {
	// File is the catalog name of the File to read.
	File string
	// Filter optionally drops records before they flow on. When Combine
	// is set, the filter sees the combined record.
	Filter Filter
	// Combine appends each fetched record to the pointer's carried
	// context (see RangeDeref.Combine).
	Combine bool
}

// Name implements Dereferencer.
func (d LookupDeref) Name() string { return "LookupDeref(" + d.File + ")" }

// Deref implements Dereferencer.
func (d LookupDeref) Deref(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	f, err := tc.Catalog.File(d.File)
	if err != nil {
		return nil, err
	}
	var out []lake.Record
	for _, p := range targetPartitions(tc, f, ptr) {
		recs, err := f.Lookup(tc.Ctx, p, ptr.Key)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", d.Name(), err)
		}
		out = append(out, recs...)
	}
	out = combine(d.Combine, ptr, out)
	return applyFilter(d.Filter, out)
}

// DerefBatch implements BatchDereferencer: the batch's keys reach storage
// through lake.LookupBatch — one admission per target partition instead of
// one per pointer. The executor coalesces per partition, so a batch
// normally hits exactly one; pointers a hash change re-routed mid-batch
// still resolve correctly because grouping re-derives each pointer's
// partition here. Broadcast pointers (which address many partitions) fall
// back to the per-pointer path.
func (d LookupDeref) DerefBatch(tc *TaskCtx, ptrs []lake.Pointer) ([][]lake.Record, error) {
	f, err := tc.Catalog.File(d.File)
	if err != nil {
		return nil, err
	}
	out := make([][]lake.Record, len(ptrs))
	// parts[i] is the partition ptrs[i] routes to, or -1 once it is served.
	// The groups below take their keys and indices from two arrays shared
	// by the whole batch, so a batch costs a fixed number of slices however
	// many keys or partitions it holds.
	parts := make([]int, len(ptrs))
	for i, ptr := range ptrs {
		part, broadcast := lake.ResolvePartition(f, ptr)
		if broadcast {
			recs, err := d.Deref(tc, ptr)
			if err != nil {
				return nil, err
			}
			out[i], part = recs, -1
		}
		parts[i] = part
	}
	keys := make([]lake.Key, 0, len(ptrs))
	idxs := make([]int, 0, len(ptrs))
	for first, part := range parts {
		if part < 0 {
			continue
		}
		start := len(keys)
		for i := first; i < len(ptrs); i++ {
			if parts[i] == part {
				keys = append(keys, ptrs[i].Key)
				idxs = append(idxs, i)
				parts[i] = -1
			}
		}
		res, err := lake.LookupBatch(tc.Ctx, f, part, keys[start:])
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", d.Name(), err)
		}
		for j, i := range idxs[start:] {
			recs := combine(d.Combine, ptrs[i], res[j])
			if recs, err = applyFilter(d.Filter, recs); err != nil {
				return nil, err
			}
			out[i] = recs
		}
	}
	return out, nil
}

// combine merges the pointer's carried context with each fetched record,
// producing composite segment-list records (multi-way join state).
func combine(enabled bool, ptr lake.Pointer, recs []lake.Record) []lake.Record {
	if !enabled {
		return recs
	}
	for i, r := range recs {
		recs[i] = lake.Record{Key: r.Key, Data: lake.AppendSegment(ptr.Carry, r.Data)}
	}
	return recs
}

// ScanDeref reads every record of the file's local partitions. It exists
// for jobs that have no structure to start from (pure schema-on-read over
// raw data) and for the structure builder. Its pointers are normally
// broadcast seeds.
type ScanDeref struct {
	// File is the catalog name of the File to scan.
	File string
	// Filter optionally drops records during the scan.
	Filter Filter
}

// Name implements Dereferencer.
func (d ScanDeref) Name() string { return "ScanDeref(" + d.File + ")" }

// Deref implements Dereferencer.
func (d ScanDeref) Deref(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	f, err := tc.Catalog.File(d.File)
	if err != nil {
		return nil, err
	}
	var out []lake.Record
	for _, p := range targetPartitions(tc, f, ptr) {
		err := f.Scan(tc.Ctx, p, func(r lake.Record) error {
			if d.Filter != nil {
				ok, err := d.Filter(r)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			out = append(out, r)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", d.Name(), err)
		}
	}
	return out, nil
}

// targetPartitions resolves which partitions of f a pointer addresses on
// this node: its routed partition, or the node's local partitions for a
// broadcast pointer.
func targetPartitions(tc *TaskCtx, f lake.File, ptr lake.Pointer) []int {
	if part, broadcast := lake.ResolvePartition(f, ptr); !broadcast {
		return []int{part}
	}
	return tc.LocalPartitions(f)
}

func applyFilter(filter Filter, recs []lake.Record) ([]lake.Record, error) {
	if filter == nil {
		return recs, nil
	}
	out := recs[:0]
	for _, r := range recs {
		ok, err := filter(r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// EntryRef is the paper's Referencer-1/-3: it takes an index entry produced
// by an index Dereferencer, decodes the embedded (partition key, primary
// key) pair, and emits a pointer to the indexed record in Target. It is the
// half of an index probe that turns index entries into record fetches —
// cross-partition when the index and the file are partitioned by different
// keys (a global index).
//
// In a multi-way join the index entry may arrive combined with carried
// context (the index Dereferencer ran with Combine). Setting FromComposite
// makes EntryRef treat its input as a segment list whose *last* segment is
// the index entry, decode that, and carry the earlier segments onward, so
// the partial join result survives the index hop.
type EntryRef struct {
	// Target is the catalog name of the file the index entries point into.
	Target string
	// FromComposite marks the input as {carried context ⊕ index entry}.
	FromComposite bool
}

// Name implements Referencer.
func (r EntryRef) Name() string { return "EntryRef(" + r.Target + ")" }

// Ref implements Referencer.
func (r EntryRef) Ref(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	return r.AppendRef(tc, nil, rec)
}

// AppendRef implements AppendReferencer.
func (r EntryRef) AppendRef(tc *TaskCtx, dst []lake.Pointer, rec lake.Record) ([]lake.Pointer, error) {
	entry := rec.Data
	var carry []byte
	if r.FromComposite {
		segs, err := lake.DecodeSegments(rec.Data)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
		}
		if len(segs) == 0 {
			return nil, fmt.Errorf("core: %s: empty composite record", r.Name())
		}
		entry = segs[len(segs)-1]
		carry = lake.EncodeSegments(segs[:len(segs)-1]...)
	}
	partKey, pk, err := lake.DecodeIndexEntry(entry)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}
	return append(dst, lake.Pointer{File: r.Target, PartKey: partKey, Key: pk, Carry: carry}), nil
}

// CarryMode selects what context a Referencer attaches to the pointers it
// emits, enabling multi-way joins (composite records).
type CarryMode int

const (
	// CarryNone attaches no context (simple index probes).
	CarryNone CarryMode = iota
	// CarryRecord attaches the input record's payload as a one-segment
	// context: the next combining Dereferencer produces {this ⊕ fetched}.
	CarryRecord
	// CarryComposite treats the input record as an existing segment list
	// (it came from a combining Dereferencer) and carries it as-is.
	CarryComposite
)

// FieldRef is the paper's Referencer-2: it interprets a record with
// schema-on-read (via the user's Interpreter), extracts one field, encodes
// it with Encode, and emits a pointer keyed by that value into Target —
// typically a global index partitioned by the same value. With Broadcast
// set the pointer carries no partition information, so the executor
// replicates it to all partitions (a broadcast join, §III-B
// "Expressibility"). With Prefix set the pointer covers the whole key range
// prefixed by the value (fetching all lineitems of one order). Carry
// selects the multi-way-join context to attach.
type FieldRef struct {
	// Target is the catalog name of the file or index to point into.
	Target string
	// Interp interprets the record (schema-on-read).
	Interp Interpreter
	// Field names the field to extract from the interpreted record.
	Field string
	// Encode converts the field's string value to an ordered key. It is
	// required; workloads provide per-column encoders.
	Encode func(value string) (lake.Key, error)
	// Broadcast, if set, emits the pointer without partition information.
	Broadcast bool
	// Prefix, if set, emits a range pointer covering every key that
	// begins with the encoded value.
	Prefix bool
	// Carry selects the context attached for multi-way joins.
	Carry CarryMode
}

// Name implements Referencer.
func (r FieldRef) Name() string { return "FieldRef(" + r.Field + "→" + r.Target + ")" }

// Ref implements Referencer.
func (r FieldRef) Ref(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	return r.AppendRef(tc, nil, rec)
}

// AppendRef implements AppendReferencer.
func (r FieldRef) AppendRef(tc *TaskCtx, dst []lake.Pointer, rec lake.Record) ([]lake.Pointer, error) {
	v, err := r.Interp.Field(rec, r.Field)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}
	k, err := r.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}
	p := lake.Pointer{File: r.Target, Key: k}
	if r.Prefix {
		p.Key, p.EndKey = lake.PrefixRange(k)
	}
	if r.Broadcast {
		p.NoPart = true
	} else {
		p.PartKey = k
	}
	switch r.Carry {
	case CarryRecord:
		p.Carry = lake.EncodeSegments(rec.Data)
	case CarryComposite:
		p.Carry = rec.Data
	}
	return append(dst, p), nil
}

// FuncRef adapts an arbitrary function to the Referencer interface, for
// referencers too specialized to be pre-defined.
type FuncRef struct {
	// Label names the function in errors and stats.
	Label string
	// Fn produces the pointers.
	Fn func(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error)
}

// Name implements Referencer.
func (r FuncRef) Name() string {
	if r.Label != "" {
		return r.Label
	}
	return "FuncRef"
}

// Ref implements Referencer.
func (r FuncRef) Ref(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error) { return r.Fn(tc, rec) }

// FuncDeref adapts an arbitrary function to the Dereferencer interface.
type FuncDeref struct {
	// Label names the function in errors and stats.
	Label string
	// Fn produces the records.
	Fn func(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error)
}

// Name implements Dereferencer.
func (d FuncDeref) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "FuncDeref"
}

// Deref implements Dereferencer.
func (d FuncDeref) Deref(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) { return d.Fn(tc, ptr) }
