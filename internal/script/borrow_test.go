package script

// The borrowed payload: every adapter binds data as a view of rec.Data that
// is valid for the call only. These tests call each adapter, then scribble
// the payload the way a task's lent record array is reused, and require that
// nothing the host kept reads the new bytes.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// viewSource keeps views of data wherever a contract lets a string out:
// pointers of all three shapes, carries of both kinds, fields, keys and a
// returned partition key.
const viewSource = `fn view_ref(key, data) {
	let head = substr(data, 0, find(data, "|"))
	emit(head, head, data)
	emitbroadcast(substr(data, 0, 2), substr(data, 1, 5))
	emitrange(head, substr(data, 0, 2), data)
	carry()
	emit("f", keyint(int(head)), keystr(head))
	carrycomposite()
	emit("g", head, head)
}
fn view_fields(key, data) {
	set(substr(data, 0, 2), data)
	set("head", substr(data, 0, find(data, "|")))
	set("n", int(substr(data, 0, find(data, "|"))) + 1)
}
fn view_partkey(key, data) {
	return substr(data, 0, find(data, "|"))
}
fn view_keys(key, data) {
	emit(data)
	emit(substr(data, 0, 3))
	emit(key)
}
`

// scribble overwrites b the way a test binary poisons a released buffer.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

func renderPointers(ptrs []lake.Pointer) string {
	var b strings.Builder
	for _, p := range ptrs {
		fmt.Fprintf(&b, "%q %q %q %q %v %q\n", p.File, p.PartKey, p.Key, p.EndKey, p.NoPart, p.Carry)
	}
	return b.String()
}

// TestBorrowedPayloadNeverKept calls every adapter on a record, scribbles
// the record's payload, and requires what the call returned to be unchanged
// and not to read the scribble: each string that leaves a call and may be a
// view of the payload is a copy.
func TestBorrowedPayloadNeverKept(t *testing.T) {
	p := MustCompile(viewSource + q5Source)
	ref, err := p.NewReferencer("views", "view_ref", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	entryRef, err := p.NewReferencer("entry", "ref_entry", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	interp, err := p.NewInterpreter("view_fields", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	partKey, err := p.PartKeyFunc("view_partkey", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := p.KeysFunc("view_keys", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &core.TaskCtx{}
	var arena lake.Arena
	lent := make([]lake.Pointer, 0, 32)
	entry := lake.EncodeIndexEntry(keycodec.Int64(7), keycodec.Int64(42))
	for _, c := range []struct {
		name string
		data []byte
		// call calls the adapter on rec and returns a rendering of what it
		// returned, read afresh on every call of render.
		call func(rec lake.Record) (render func() string, err error)
	}{
		{"Referencer.AppendRef", orderRec(42).Data, func(rec lake.Record) (func() string, error) {
			ptrs, err := ref.AppendRef(tc, &arena, lent[:0], rec)
			return func() string { return renderPointers(ptrs) }, err
		}},
		{"Referencer.Ref", orderRec(42).Data, func(rec lake.Record) (func() string, error) {
			ptrs, err := ref.Ref(tc, rec)
			return func() string { return renderPointers(ptrs) }, err
		}},
		{"Referencer.AppendRef/indexentry", entry, func(rec lake.Record) (func() string, error) {
			ptrs, err := entryRef.AppendRef(tc, &arena, lent[16:16], rec)
			return func() string { return renderPointers(ptrs) }, err
		}},
		{"Interpreter", orderRec(42).Data, func(rec lake.Record) (func() string, error) {
			f, err := interp(rec)
			return func() string {
				var b strings.Builder
				for _, name := range []string{"42", "head", "n"} {
					v, ok := f.Get(name)
					fmt.Fprintf(&b, "%s=%q/%v ", name, v, ok)
				}
				return b.String()
			}, err
		}},
		{"PartKeyFunc", orderRec(42).Data, func(rec lake.Record) (func() string, error) {
			k, err := partKey(rec)
			return func() string { return fmt.Sprintf("%q", k) }, err
		}},
		{"KeysFunc", orderRec(42).Data, func(rec lake.Record) (func() string, error) {
			ks, err := keys(rec)
			return func() string { return fmt.Sprintf("%q", ks) }, err
		}},
	} {
		// The payload's own copy, so scribbling it touches nothing else.
		rec := lake.Record{Key: orderRec(42).Key, Data: bytes.Clone(c.data)}
		render, err := c.call(rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		before := render()
		// An orders row's results must show its fields (42|297|…), or there
		// is nothing for the scribble to change.
		if c.data[0] == '4' && !strings.Contains(before, "42") {
			t.Fatalf("%s returned nothing of the payload, so the test checks nothing: %s", c.name, before)
		}
		scribble(rec.Data)
		if after := render(); after != before {
			t.Errorf("%s kept a view of the borrowed payload:\nbefore %s\nafter  %s", c.name, before, after)
		}
	}
}
