package core

import (
	"fmt"
	"slices"

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
	n, err := filterInto(d.Filter, out, 0, out)
	if err != nil {
		return nil, err
	}
	return out[:n], nil
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

// Deref implements Dereferencer: AppendDeref of the one pointer onto nil.
func (d LookupDeref) Deref(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	return d.appendDeref(tc, nil, []lake.Pointer{ptr}, nil)
}

// DerefBatch implements BatchDereferencer: AppendDeref onto an array sized
// for one record per pointer, cut into one group per pointer where each
// pointer's records end.
func (d LookupDeref) DerefBatch(tc *TaskCtx, ptrs []lake.Pointer) ([][]lake.Record, error) {
	groups := make([][]lake.Record, len(ptrs))
	if _, err := d.appendDeref(tc, make([]lake.Record, 0, len(ptrs)), ptrs, groups); err != nil {
		return nil, err
	}
	return groups, nil
}

// AppendDeref implements AppendDereferencer.
func (d LookupDeref) AppendDeref(tc *TaskCtx, dst []lake.Record, ptrs []lake.Pointer) ([]lake.Record, error) {
	return d.appendDeref(tc, dst, ptrs, nil)
}

// appendDeref is the one body behind Deref, DerefBatch and AppendDeref. The
// pointers of a batch that route to one partition reach storage in one
// lake.AppendLookupBatch — one admission per target partition — and a lone
// pointer in one Lookup; a broadcast pointer looks up each local partition.
// Records are appended straight onto dst, then combined with their pointer's
// carry and filtered in place. groups, when non-nil, receives each pointer's
// records, aligned with ptrs (an array a later append outgrows keeps them).
func (d LookupDeref) appendDeref(tc *TaskCtx, dst []lake.Record, ptrs []lake.Pointer, groups [][]lake.Record) ([]lake.Record, error) {
	f, err := tc.Catalog.File(d.File)
	if err != nil {
		return dst, err
	}
	// parts[i] is the partition ptrs[i] routes to, broadcast, or served once
	// its records are in; a small frame keeps deep callers' stacks from growing.
	const broadcast, served = -1, -2
	var buf [DefaultMaxBatch]int32
	parts := buf[:0]
	for _, ptr := range ptrs {
		part, all := lake.ResolvePartition(f, ptr)
		if all {
			part = broadcast
		}
		parts = append(parts, int32(part))
	}
	out := dst
	for i, part := range parts {
		if part == served {
			continue
		}
		// The group is ptrs[i] and, if it is routed, every later pointer to its partition.
		inGroup := func(j int) bool { return j == i || part != broadcast && parts[j] == part }
		start := len(out)
		var ends []int         // where each pointer's records end: needed to combine or align them
		var endsBuf *lent[int] // ends' loan, nil when ends is nil
		switch {
		case part == broadcast:
			for _, p := range tc.LocalPartitions(f) {
				if out, err = lake.AppendLookup(tc.Ctx, f, out, p, ptrs[i].Key); err != nil {
					break
				}
			}
		case len(ptrs) == 1:
			out, err = lake.AppendLookup(tc.Ctx, f, out, int(part), ptrs[i].Key)
		default:
			keys := keyBufs.get()
			for j := i; j < len(parts); j++ {
				if inGroup(j) {
					keys.s = append(keys.s, ptrs[j].Key)
				}
			}
			if d.Combine || groups != nil {
				endsBuf = endBufs.get()
				ends = slices.Grow(endsBuf.s, len(keys.s))[:len(keys.s)]
			}
			out, err = lake.AppendLookupBatch(tc.Ctx, f, out, int(part), keys.s, ends)
			keys.release() // no BatchFile keeps keys past the call
		}
		if err != nil {
			clear(out[len(dst):])
			return out[:len(dst)], fmt.Errorf("core: %s: %w", d.Name(), err)
		}
		r, w, k := start, start, 0 // read from r, keep at w; k counts the group's pointers
		for j := i; j < len(parts); j++ {
			if !inGroup(j) {
				continue
			}
			parts[j] = served
			end := len(out)
			if ends != nil {
				end = ends[k]
			}
			k++
			from := w
			combine(d.Combine, ptrs[j], out[r:end])
			if w, err = filterInto(d.Filter, out, w, out[r:end]); err != nil {
				clear(out[len(dst):])
				return out[:len(dst)], err
			}
			if r = end; groups != nil && w > from {
				groups[j] = out[from:w:w]
			}
		}
		clear(out[w:])
		out = out[:w]
		if endsBuf != nil {
			endsBuf.s = ends
			endsBuf.release()
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

// filterInto copies the records of src that pass filter (every one, for a
// nil filter) to dst from w on, and returns where they end. src may be
// dst[r:] for any r >= w: records only move down.
func filterInto(filter Filter, dst []lake.Record, w int, src []lake.Record) (int, error) {
	for _, r := range src {
		if filter != nil {
			ok, err := filter(r)
			if err != nil {
				return w, err
			}
			if !ok {
				continue
			}
		}
		dst[w] = r
		w++
	}
	return w, nil
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
	return r.AppendRef(tc, nil, nil, rec)
}

// AppendRef implements AppendReferencer: the entry's keys are cut from keys.
func (r EntryRef) AppendRef(tc *TaskCtx, keys *lake.KeyArena, dst []lake.Pointer, rec lake.Record) ([]lake.Pointer, error) {
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
	partKey, pk, err := keys.DecodeIndexEntry(entry)
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
	return r.AppendRef(tc, nil, nil, rec)
}

// AppendRef implements AppendReferencer. Its key comes from Encode, not from
// the arena.
func (r FieldRef) AppendRef(tc *TaskCtx, _ *lake.KeyArena, dst []lake.Pointer, rec lake.Record) ([]lake.Pointer, error) {
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
