package core

import (
	"bytes"
	"fmt"
	"unsafe"

	"lakeharbor/internal/lake"
)

// Fields is the result of interpreting a raw record with schema-on-read: a
// read-only view that names the pieces of a payload without copying them.
// Building one allocates nothing; Get copies out the one value that is asked
// for. A composite view (Composite) borrows its interpreter list as well and
// interprets the segments again on each Get.
//
// A view aliases the record it was made from — and the storage layer shares
// Record.Data with its B-trees — so it is valid only for the current call and
// must never be written through. The strings Get returns are copies and may
// be kept.
type Fields struct {
	// names holds the field names, declared once per interpreter and shared
	// by every view it returns. Exactly one of the following backs them.
	names []string
	// Delimited: names[i] is the i-th sep-separated piece of data.
	sep  byte
	data []byte
	// NewFields: names[i] has values[i].
	values []string
	// MergeFields: one view per joined record; names unused.
	parts []Fields
	// Composite: data is a segment list whose i-th segment interps[i] reads,
	// under the record's key; names unused.
	interps []Interpreter
	key     lake.Key
}

// Get returns the value of the named field and whether the view has it. When
// several parts of a composite name the same field, the last one wins — the
// most recently joined record.
func (f Fields) Get(name string) (string, bool) { return f.get(name, false) }

// get is Get, and with borrow set Get without the copy: a value read from the
// record's bytes aliases them, so it is valid for the current call only, as
// the view is.
func (f Fields) get(name string, borrow bool) (string, bool) {
	if f.interps != nil {
		// Composite checked the segments; their headers stay on the stack.
		var buf [4][]byte
		segs, _ := lake.SplitSegments(buf[:0], f.data)
		for i := len(segs) - 1; i >= 0; i-- {
			if p, err := f.interps[i](lake.Record{Key: f.key, Data: segs[i]}); err == nil {
				if v, ok := p.get(name, borrow); ok {
					return v, true
				}
			}
		}
		return "", false
	}
	for i := len(f.parts) - 1; i >= 0; i-- {
		if v, ok := f.parts[i].get(name, borrow); ok {
			return v, true
		}
	}
	for i := len(f.names) - 1; i >= 0; i-- {
		if f.names[i] != name {
			continue
		}
		if f.values != nil {
			return f.values[i], true
		}
		data := f.data
		for ; i > 0; i-- {
			data = data[bytes.IndexByte(data, f.sep)+1:]
		}
		if end := bytes.IndexByte(data, f.sep); end >= 0 {
			data = data[:end]
		}
		if borrow {
			return unsafe.String(unsafe.SliceData(data), len(data)), true
		}
		return string(data), true
	}
	return "", false
}

// Field interprets rec and returns the one named field. A record that does
// not have the field is an error.
func (in Interpreter) Field(rec lake.Record, name string) (string, error) {
	return in.field(rec, name, false)
}

// field is Field, borrowing the value (see Fields.get) when borrow is set.
func (in Interpreter) field(rec lake.Record, name string, borrow bool) (string, error) {
	f, err := in(rec)
	if err != nil {
		return "", err
	}
	v, ok := f.get(name, borrow)
	if !ok {
		return "", fmt.Errorf("record has no field %q", name)
	}
	return v, nil
}

// NewFields returns a view in which names[i] has values[i], for interpreters
// whose records are not delimited text. A name listed twice takes its last
// value. The slices are not copied.
func NewFields(names, values []string) Fields {
	if len(names) != len(values) {
		panic(fmt.Sprintf("core: NewFields: %d names for %d values", len(names), len(values)))
	}
	return Fields{names: names, values: values}
}

// MergeFields returns one view over the views of separate joined records, in
// join order. The slice is not copied.
func MergeFields(parts []Fields) Fields { return Fields{parts: parts} }

// Delimited declares a schema-on-read interpreter for delimited text records:
// the separator and the field names in order, once. what names the record
// kind in errors ("orders"). Every record is checked to have exactly
// len(names) fields.
func Delimited(what string, sep byte, names ...string) Interpreter {
	sepBytes := []byte{sep}
	return func(rec lake.Record) (Fields, error) {
		if n := bytes.Count(rec.Data, sepBytes) + 1; n != len(names) {
			return Fields{}, fmt.Errorf("core: %s record has %d fields, want %d: %q", what, n, len(names), rec.Data)
		}
		return Fields{names: names, sep: sep, data: rec.Data}, nil
	}
}

// Composite builds an Interpreter over composite (segment-list) records: it
// splits the payload and checks each segment with its interpreter. The view
// borrows the payload and the interpreters; Get splits again and asks the
// segments last to first, so a field name two segments share reads the later
// one. A segment's interpreter thus runs again on every Get.
func Composite(interps ...Interpreter) Interpreter {
	return func(rec lake.Record) (Fields, error) {
		var buf [4][]byte // segment headers stay on the stack up to Q5′'s width
		segs, err := lake.SplitSegments(buf[:0], rec.Data)
		if err != nil {
			return Fields{}, err
		}
		if len(segs) != len(interps) {
			return Fields{}, fmt.Errorf("core: composite record has %d segments, interpreter expects %d", len(segs), len(interps))
		}
		for i, seg := range segs {
			if _, err := interps[i](lake.Record{Key: rec.Key, Data: seg}); err != nil {
				return Fields{}, err
			}
		}
		return Fields{data: rec.Data, interps: interps, key: rec.Key}, nil
	}
}
