package core

import (
	"cmp"
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

// Deref implements Dereferencer: AppendDeref of the one pointer onto nil,
// one-shot.
func (d RangeDeref) Deref(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	return d.AppendDeref(tc, nil, nil, []lake.Pointer{ptr})
}

// AppendDeref implements AppendDereferencer: each pointer's range is read
// from every partition it addresses straight onto dst, then its records are
// combined with the pointer's carry (cut from a) and filtered in place.
func (d RangeDeref) AppendDeref(tc *TaskCtx, a *lake.Arena, dst []lake.Record, ptrs []lake.Pointer) ([]lake.Record, error) {
	f, err := tc.Catalog.File(d.File)
	if err != nil {
		return dst, err
	}
	bf, ok := f.(lake.BtreeFile)
	if !ok {
		return dst, lake.AsPermanent(fmt.Errorf("core: %s: file is not a BtreeFile", d.Name()))
	}
	out := dst
	for _, ptr := range ptrs {
		lo, hi := ptr.Key, cmp.Or(ptr.EndKey, ptr.Key) // a point pointer is the range [key, key]
		start := len(out)
		part, all := lake.ResolvePartition(f, ptr)
		for p := 0; p < f.NumPartitions() && err == nil; p++ {
			if tc.serves(p, part, all) {
				out, err = lake.AppendLookupRange(tc.Ctx, bf, out, p, lo, hi)
			}
		}
		if err != nil {
			err = fmt.Errorf("core: %s: %w", d.Name(), err)
			break
		}
		var w int
		if w, err = keepInto(a, d.Filter, d.Combine, ptr, out, start, out[start:]); err != nil {
			break
		}
		clear(out[w:])
		out = out[:w]
	}
	if err != nil {
		clear(out[len(dst):])
		return out[:len(dst)], err
	}
	return out, nil
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

// Deref implements Dereferencer: AppendDeref of the one pointer onto nil,
// one-shot.
func (d LookupDeref) Deref(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	return d.appendDeref(tc, nil, nil, []lake.Pointer{ptr}, nil)
}

// DerefBatch implements BatchDereferencer: AppendDeref, one-shot, onto an
// array sized for one record per pointer, cut into one group per pointer
// where each pointer's records end.
func (d LookupDeref) DerefBatch(tc *TaskCtx, ptrs []lake.Pointer) ([][]lake.Record, error) {
	groups := make([][]lake.Record, len(ptrs))
	if _, err := d.appendDeref(tc, nil, make([]lake.Record, 0, len(ptrs)), ptrs, groups); err != nil {
		return nil, err
	}
	return groups, nil
}

// AppendDeref implements AppendDereferencer.
func (d LookupDeref) AppendDeref(tc *TaskCtx, a *lake.Arena, dst []lake.Record, ptrs []lake.Pointer) ([]lake.Record, error) {
	return d.appendDeref(tc, a, dst, ptrs, nil)
}

// appendDeref is the one body behind Deref, DerefBatch and AppendDeref. The
// pointers of a batch that route to one partition reach storage in one
// lake.AppendLookupBatch — one admission per target partition — and a lone
// pointer in one Lookup; a broadcast pointer looks up each local partition.
// Records are appended straight onto dst, then combined with their pointer's
// carry (cut from a) and filtered in place. groups, when non-nil, receives
// each pointer's records, aligned with ptrs (an array a later append outgrows
// keeps them).
func (d LookupDeref) appendDeref(tc *TaskCtx, a *lake.Arena, dst []lake.Record, ptrs []lake.Pointer, groups [][]lake.Record) ([]lake.Record, error) {
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
			for p := 0; p < f.NumPartitions() && err == nil; p++ {
				if tc.Owner(p) == tc.Node {
					out, err = lake.AppendLookup(tc.Ctx, f, out, p, ptrs[i].Key)
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
			if w, err = keepInto(a, d.Filter, d.Combine, ptrs[j], out, w, out[r:end]); err != nil {
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
	part, all := lake.ResolvePartition(f, ptr)
	for p := 0; p < f.NumPartitions(); p++ {
		if !tc.serves(p, part, all) {
			continue
		}
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

// keepInto moves the records of src that pass filter (every one, for a nil
// filter) to dst from w on, joined onto ptr's carry when combine is set, and
// returns where they end. src may be dst[r:] for any r >= w: records only move
// down. A combine joins each record in a's uncommitted room; a filtered one
// shows the filter it there and cuts only the records it keeps, scribbling
// the rest in a test binary, so a filter that kept its rec reads poison.
func keepInto(a *lake.Arena, filter Filter, combine bool, ptr lake.Pointer, dst []lake.Record, w int, src []lake.Record) (int, error) {
	for _, r := range src {
		ok, err := true, error(nil)
		switch {
		case combine && filter != nil:
			joined := a.Join(ptr.Carry, r.Data)
			ok, err = filter(lake.Record{Key: r.Key, Data: joined})
			keep := ok && err == nil
			if !keep || poisoning && failpoint(FailpointCombineKeepsScratch) {
				for i := 0; poisoning && i < len(joined); i++ {
					joined[i] = 0xa5 // the filter's rec was valid for the call only
				}
			}
			if keep {
				// The deliberate bug keeps the scribbled scratch, cut so that no
				// later record or task writes it: it reads poison, race-free.
				r.Data = a.Cut(joined)
			}
		case combine: // and no filter
			r.Data = a.Cut(a.Join(ptr.Carry, r.Data))
		case filter != nil:
			ok, err = filter(r)
		}
		if err != nil {
			return w, err
		}
		if ok {
			dst[w] = r
			w++
		}
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

// Ref implements Referencer: AppendRef onto nil, one-shot.
func (r EntryRef) Ref(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	return r.AppendRef(tc, nil, nil, rec)
}

// AppendRef implements AppendReferencer: the entry's keys and the carry are
// cut from a.
func (r EntryRef) AppendRef(tc *TaskCtx, a *lake.Arena, dst []lake.Pointer, rec lake.Record) ([]lake.Pointer, error) {
	entry := rec.Data
	var carry []byte
	if r.FromComposite {
		var buf [4][]byte // segment headers stay on the stack up to Q5′'s width
		segs, err := lake.SplitSegments(buf[:0], rec.Data)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
		}
		if len(segs) == 0 {
			return nil, fmt.Errorf("core: %s: empty composite record", r.Name())
		}
		entry = segs[len(segs)-1]
		carry = a.EncodeSegments(segs[:len(segs)-1]...)
	}
	partKey, pk, err := a.DecodeIndexEntry(entry)
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
	// Encode appends the ordered key of the field's string value to dst and
	// returns the extended slice. It is required; workloads provide
	// per-column encoders. value is valid for the call only — it may alias
	// the record — so an encoder that keeps it, or an error that quotes it
	// lazily, must copy it.
	Encode func(dst []byte, value string) ([]byte, error)
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

// Ref implements Referencer: AppendRef onto nil, one-shot.
func (r FieldRef) Ref(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	return r.AppendRef(tc, nil, nil, rec)
}

// AppendRef implements AppendReferencer. The field is read borrowed and
// encoded straight into a; the key, a prefix range's end and a carried
// record are cut from it.
func (r FieldRef) AppendRef(tc *TaskCtx, a *lake.Arena, dst []lake.Pointer, rec lake.Record) ([]lake.Pointer, error) {
	v, err := r.Interp.field(rec, r.Field, true)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}
	kb, err := r.Encode(a.Tail(len(v)+8), v) // room for a fixed-width or escaped key
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}
	k := a.CutKey(kb)
	p := lake.Pointer{File: r.Target, Key: k}
	if r.Prefix {
		p.Key, p.EndKey = a.PrefixRange(k)
	}
	if r.Broadcast {
		p.NoPart = true
	} else {
		p.PartKey = k
	}
	switch r.Carry {
	case CarryRecord:
		p.Carry = a.EncodeSegments(rec.Data)
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
