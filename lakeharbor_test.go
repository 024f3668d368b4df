package lakeharbor

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"testing"

	"lakeharbor/internal/lake"
)

// TestEngineEndToEnd drives the whole public API the way the quickstart
// example does: create a lake, ingest raw records, register a post hoc
// access method, and run a selection job with and without SMPE.
func TestEngineEndToEnd(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Nodes: 3})
	if e.Nodes() != 3 {
		t.Fatalf("Nodes = %d", e.Nodes())
	}
	if _, err := e.CreateFile("events", 0, nil); err != nil {
		t.Fatal(err)
	}
	// Raw CSV-ish events: id,severity,message.
	const n = 200
	for i := 0; i < n; i++ {
		k := KeyInt64(int64(i))
		rec := Record{Key: k, Data: []byte(fmt.Sprintf("%d,%d,event-%d", i, i%10, i))}
		if err := e.Ingest(ctx, "events", k, rec); err != nil {
			t.Fatal(err)
		}
	}

	interp := Delimited("event", ',', "id", "severity", "message")
	get := func(f Fields, name string) string {
		v, _ := f.Get(name)
		return v
	}

	// Post hoc access method: a global index on severity.
	err := e.RegisterStructure(StructureSpec{
		Name: "events_by_severity",
		Base: "events",
		Kind: GlobalIndex,
		PartKey: func(rec Record) (Key, error) {
			return rec.Key, nil
		},
		Keys: func(rec Record) ([]Key, error) {
			f, err := interp(rec)
			if err != nil {
				return nil, err
			}
			sev, err := strconv.ParseInt(get(f, "severity"), 10, 64)
			if err != nil {
				return nil, err
			}
			return []Key{KeyInt64(sev)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnsureStructure(ctx, "events_by_severity"); err != nil {
		t.Fatal(err)
	}

	// Select severities 7..9 through the structure.
	seeds, err := SeedRange(e, "events_by_severity", KeyInt64(7), KeyInt64(9))
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob("severe-events", seeds,
		RangeDeref{File: "events_by_severity"},
		EntryRef{Target: "events"},
		LookupDeref{File: "events"},
	)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Metrics()
	res, err := e.Execute(ctx, job, Options{KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != n*3/10 {
		t.Fatalf("selection count = %d, want %d", res.Count, n*3/10)
	}
	for _, r := range res.Records {
		f, err := interp(r)
		if err != nil {
			t.Fatal(err)
		}
		if sev, _ := strconv.Atoi(get(f, "severity")); sev < 7 || sev > 9 {
			t.Fatalf("record with severity %d escaped", sev)
		}
	}
	if d := e.Metrics().Sub(before); d.RecordAccesses() == 0 {
		t.Error("metrics did not record the query")
	}

	plain, err := e.ExecutePlain(ctx, job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Count != res.Count {
		t.Fatalf("plain count %d != SMPE count %d", plain.Count, res.Count)
	}
}

func TestEngineDefaults(t *testing.T) {
	e := New(Config{})
	if e.Nodes() != 1 {
		t.Errorf("default Nodes = %d, want 1", e.Nodes())
	}
	f, err := e.CreateFile("f", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPartitions() != 2 { // 2 × 1 node
		t.Errorf("default partitions = %d, want 2", f.NumPartitions())
	}
	if _, ok := f.Partitioner().(lake.HashPartitioner); !ok {
		t.Error("default partitioner is not hash")
	}
	if _, err := e.File("f"); err != nil {
		t.Error(err)
	}
	if err := e.Ingest(context.Background(), "missing", "k", Record{}); err == nil {
		t.Error("Ingest into missing file should fail")
	}
}

func TestKeyHelpers(t *testing.T) {
	if KeyInt64(1) >= KeyInt64(2) {
		t.Error("KeyInt64 order broken")
	}
	if KeyFloat64(1.5) >= KeyFloat64(2.5) {
		t.Error("KeyFloat64 order broken")
	}
	if KeyString("a") >= KeyString("b") {
		t.Error("KeyString order broken")
	}
	tu := KeyTuple(KeyString("a"), KeyInt64(1))
	if tu >= KeyTuple(KeyString("a"), KeyInt64(2)) {
		t.Error("KeyTuple order broken")
	}
	if HDDCostModel().Zero() {
		t.Error("HDDCostModel should not be zero")
	}
}

func TestEngineSnapshotRestore(t *testing.T) {
	ctx := context.Background()
	src := New(Config{Nodes: 2})
	src.CreateFile("t", 0, nil)
	for i := int64(0); i < 100; i++ {
		k := KeyInt64(i)
		if err := src.Ingest(ctx, "t", k, Record{Key: k, Data: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Snapshot(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	dst := New(Config{Nodes: 3})
	if err := dst.Restore(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := dst.File("t")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for p := 0; p < f.NumPartitions(); p++ {
		f.Scan(ctx, p, func(Record) error { n++; return nil })
	}
	if n != 100 {
		t.Fatalf("restored engine has %d records, want 100", n)
	}
}
