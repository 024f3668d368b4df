package tpch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/lake"
)

// The strings.Split interpreter the lazy view replaced, kept as the reference
// the view is held to: refTable is one table's declaration, refInterp what
// the nine hand-written Interp* functions did with it, refComposite what
// core.Composite did with a merged map.

type refTable struct {
	name   string
	interp core.Interpreter
	names  []string
}

var (
	refRegion   = refTable{"region", InterpRegion, []string{"r_regionkey", "r_name"}}
	refNation   = refTable{"nation", InterpNation, []string{"n_nationkey", "n_name", "n_regionkey"}}
	refSupplier = refTable{"supplier", InterpSupplier, []string{"s_suppkey", "s_name", "s_nationkey", "s_acctbal"}}
	refCustomer = refTable{"customer", InterpCustomer, []string{"c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"}}
	refPartSupp = refTable{"partsupp", InterpPartSupp, []string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"}}
	refPart     = refTable{"part", InterpPart, []string{"p_partkey", "p_name", "p_retailprice"}}
	refOrders   = refTable{"orders", InterpOrders, []string{"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"}}
	refLineitem = refTable{"lineitem", InterpLineitem, []string{"l_orderkey", "l_linenumber", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"}}
)

// The reference's error classes.
var (
	errFieldCount   = errors.New("field count")
	errSegmentCount = errors.New("segment count")
	errEncoding     = errors.New("segment encoding")
)

func refInterp(tb refTable, data []byte) (map[string]string, error) {
	f := strings.Split(string(data), "|")
	if len(f) != len(tb.names) {
		return nil, errFieldCount
	}
	out := map[string]string{}
	for i, name := range tb.names {
		out[name] = f[i]
	}
	return out, nil
}

// refSegments splits a segment list the slow way: byte by byte, copying.
func refSegments(data []byte) ([][]byte, error) {
	var out [][]byte
	for len(data) > 0 {
		seg := []byte{}
		i := 0
		for ; ; i++ {
			if i >= len(data) {
				return nil, errEncoding // unterminated
			}
			if data[i] != 0x00 {
				seg = append(seg, data[i])
				continue
			}
			if i+1 >= len(data) {
				return nil, errEncoding // truncated
			}
			if data[i+1] == 0x01 {
				break
			}
			if data[i+1] != 0xFF {
				return nil, errEncoding // invalid escape
			}
			seg = append(seg, 0x00)
			i++
		}
		out = append(out, seg)
		data = data[i+2:]
	}
	return out, nil
}

func refComposite(tables []refTable, data []byte) (map[string]string, error) {
	segs, err := refSegments(data)
	if err != nil {
		return nil, err
	}
	if len(segs) != len(tables) {
		return nil, errSegmentCount
	}
	out := map[string]string{}
	for i, seg := range segs {
		f, err := refInterp(tables[i], seg)
		if err != nil {
			return nil, err
		}
		for k, v := range f {
			out[k] = v
		}
	}
	return out, nil
}

// classOf maps the view's errors onto the reference's classes.
func classOf(err error) error {
	switch {
	case err == nil:
		return nil
	case strings.Contains(err.Error(), "fields, want"):
		return errFieldCount
	case strings.Contains(err.Error(), "segments, interpreter expects"):
		return errSegmentCount
	case strings.Contains(err.Error(), "bad segment list"):
		return errEncoding
	}
	return err
}

// sameAsReference holds one view to the reference: the same error class,
// and on success the same value for every declared field and no others.
func sameAsReference(t *testing.T, what string, data []byte, f core.Fields, err error, want map[string]string, wantErr error) {
	t.Helper()
	if got := classOf(err); got != wantErr {
		t.Fatalf("%s %q: error %v, reference %v", what, data, err, wantErr)
	}
	if err != nil {
		return
	}
	for name, w := range want {
		if got, ok := f.Get(name); !ok || got != w {
			t.Fatalf("%s %q: %s = %q, %v; reference %q", what, data, name, got, ok, w)
		}
	}
	if v, ok := f.Get("no_such_field"); ok {
		t.Fatalf("%s %q: undeclared field reads %q", what, data, v)
	}
}

// TestViewsMatchSplitReference: every record of a seeded dataset, read
// through its table's view, gives what strings.Split gives — and so does
// every record with its last field cut off or one added.
func TestViewsMatchSplitReference(t *testing.T) {
	ds := Generate(Config{SF: 0.05, Seed: 1})
	check := func(tb refTable, raw string) {
		t.Helper()
		for _, data := range [][]byte{
			[]byte(raw),
			[]byte(raw[:strings.LastIndexByte(raw, '|')]), // short record
			[]byte(raw + "|extra"),                        // extra field
			{},
		} {
			before := string(data)
			f, err := tb.interp(lake.Record{Data: data})
			want, wantErr := refInterp(tb, data)
			sameAsReference(t, tb.name, data, f, err, want, wantErr)
			if string(data) != before {
				t.Fatalf("%s %q: the view wrote to its record", tb.name, before)
			}
		}
	}
	for _, r := range ds.Regions {
		check(refRegion, r.Raw())
	}
	for _, r := range ds.Nations {
		check(refNation, r.Raw())
	}
	for _, r := range ds.Suppliers {
		check(refSupplier, r.Raw())
	}
	for _, r := range ds.Customers {
		check(refCustomer, r.Raw())
	}
	for _, r := range ds.PartSupps {
		check(refPartSupp, r.Raw())
	}
	for _, r := range ds.Parts {
		check(refPart, r.Raw())
	}
	for _, r := range ds.Orders {
		check(refOrders, r.Raw())
	}
	for _, r := range ds.Lineitems {
		check(refLineitem, r.Raw())
	}
}

// q5Composites runs Q5′ for every region over the whole date domain and
// returns its result rows; with their two- and three-segment prefixes they
// are byte for byte the composites the job's filters and FieldRefs read on
// the way.
func q5Composites(t testing.TB, sf float64) [][]byte {
	t.Helper()
	ctx := context.Background()
	c, ds := loadDataset(t, Generate(Config{SF: sf, Seed: 1}), 2)
	var rows [][]byte
	for _, r := range ds.Regions {
		job, err := Q5Job(ctx, c, r.Name, 0, DateDays)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.ExecuteSMPE(ctx, job, c, c, core.Options{Threads: 32, KeepRecords: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := ds.OracleQ5(r.Name, 0, DateDays); res.Count != want {
			t.Fatalf("%s: %d rows, oracle %d", r.Name, res.Count, want)
		}
		for _, rec := range res.Records {
			rows = append(rows, rec.Data)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("Q5′ returned no rows in any region at SF %g", sf)
	}
	return rows
}

// TestCompositeViewsMatchSplitReference: every composite Q5′ produces reads
// the same through the view as through the merged map, and a composite with
// a segment missing, added, cut short or mis-escaped fails in the same class.
func TestCompositeViewsMatchSplitReference(t *testing.T) {
	tables := []refTable{refOrders, refCustomer, refLineitem, refSupplier}
	interps := make([]core.Interpreter, len(tables))
	for i, tb := range tables {
		interps[i] = tb.interp
	}
	check := func(width int, data []byte) {
		t.Helper()
		before := string(data)
		f, err := core.Composite(interps[:width]...)(lake.Record{Data: data})
		want, wantErr := refComposite(tables[:width], data)
		sameAsReference(t, fmt.Sprintf("composite of %d", width), data, f, err, want, wantErr)
		if string(data) != before {
			t.Fatalf("composite %q: the view wrote to its record", before)
		}
	}
	for _, row := range q5Composites(t, 0.05) {
		segs, err := lake.DecodeSegments(row)
		if err != nil || len(segs) != 4 {
			t.Fatalf("result row %q: %d segments, %v", row, len(segs), err)
		}
		for width := 2; width <= 4; width++ {
			good := lake.EncodeSegments(segs[:width]...)
			check(width, good)
			check(width, lake.EncodeSegments(segs[:width-1]...))                                    // wrong segment count: one short
			check(width, lake.AppendSegment(good, segs[0]))                                         // wrong segment count: one over
			check(width, lake.EncodeSegments(append(segs[:width-1:width-1], segs[width-1][:3])...)) // short record inside
			check(width, good[:len(good)-1])                                                        // truncated terminator
			check(width, good[:len(good)-2])                                                        // unterminated
			check(width, append(good[:len(good)-1:len(good)-1], 0x02))                              // invalid escape
		}
		// A payload holding 0x00 takes the decoding path; the view reads it
		// the same.
		escaped := lake.EncodeSegments(segs[0], []byte(strings.Replace(string(segs[1]), "#", "\x00", 1)))
		check(2, escaped)
	}
}

// q5ResultRow is one Q5′ result: {order ⊕ customer ⊕ lineitem ⊕ supplier}.
var q5ResultRow = lake.EncodeSegments(
	[]byte("1|2|1995|310.00"),
	[]byte("2|Customer#000000002|7|4520.11|BUILDING"),
	[]byte("1|3|155|4|17|21168.23"),
	[]byte("4|Supplier#000000004|7|4641.08"),
)

// TestViewAllocationBudgets: interpreting a base record allocates nothing
// and reading one field copies that field, and a composite of four costs
// nothing more: its view borrows the payload and the interpreter list. (The
// map it replaces cost a slice and a string per field, a map per segment and
// one more for the merge.)
func TestViewAllocationBudgets(t *testing.T) {
	line := lake.Record{Data: []byte("1|3|155|4|17|21168.23")}
	if got := testing.AllocsPerRun(200, func() {
		if v, err := InterpLineitem.Field(line, "l_suppkey"); err != nil || v != "4" {
			t.Fatal(v, err)
		}
	}); got > 1 {
		t.Errorf("base-table interpret + Get allocates %.0f times, budget 1", got)
	}
	interpOCLS := core.Composite(InterpOrders, InterpCustomer, InterpLineitem, InterpSupplier)
	row := lake.Record{Data: q5ResultRow}
	if got := testing.AllocsPerRun(200, func() {
		// c_name, not a one-byte value: Go serves those from static memory.
		if v, err := interpOCLS.Field(row, "c_name"); err != nil || v != "Customer#000000002" {
			t.Fatal(v, err)
		}
	}); got > 1 {
		t.Errorf("Composite of four + Get allocates %.0f times, budget 1", got)
	}
}

// FuzzCompositeView holds the borrowing composite view to refComposite on
// any payload: the same error class at interpretation and, on success, the
// same value for every field name. pick chooses each segment's table, one
// byte per segment, so segments that share a table check last-wins; a
// payload with 0x00 bytes takes the decoding path.
func FuzzCompositeView(f *testing.F) {
	tables := []refTable{refRegion, refNation, refSupplier, refCustomer, refPartSupp, refPart, refOrders, refLineitem}
	f.Add([]byte{6, 3, 7, 2}, q5ResultRow)
	f.Add([]byte{6, 3, 7, 2}, q5ResultRow[:len(q5ResultRow)-1])
	f.Add([]byte{7, 7}, lake.EncodeSegments([]byte("1|3|155|4|17|21168.23"), []byte("2|1|9|4|1|0.5")))
	f.Add([]byte{6, 3}, lake.EncodeSegments([]byte("1|2|1995|310.00"), []byte("2|Customer\x00#2|7|4520.11|BUILDING")))
	f.Add([]byte{0, 1, 0, 1, 0, 1}, lake.EncodeSegments([]byte("0|AFRICA"), []byte("0|ALGERIA|0"), []byte("1|AMERICA"),
		[]byte("1|ARGENTINA|1"), []byte("2|ASIA"), []byte("8|INDIA|2")))
	f.Fuzz(func(t *testing.T, pick, data []byte) {
		if len(pick) == 0 || len(pick) > 8 {
			return
		}
		tbs := make([]refTable, len(pick))
		interps := make([]core.Interpreter, len(pick))
		for i, b := range pick {
			tbs[i] = tables[int(b)%len(tables)]
			interps[i] = tbs[i].interp
		}
		before := string(data)
		v, err := core.Composite(interps...)(lake.Record{Data: data})
		want, wantErr := refComposite(tbs, data)
		sameAsReference(t, fmt.Sprintf("composite of %d", len(pick)), data, v, err, want, wantErr)
		if string(data) != before {
			t.Fatalf("composite %q: the view wrote to its record", before)
		}
	})
}

var sinkField string

func BenchmarkInterpGet(b *testing.B) {
	line := lake.Record{Data: []byte("1|3|155|4|17|21168.23")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkField, _ = InterpLineitem.Field(line, "l_suppkey")
	}
}

func BenchmarkCompositeGet(b *testing.B) {
	interpOCLS := core.Composite(InterpOrders, InterpCustomer, InterpLineitem, InterpSupplier)
	row := lake.Record{Data: q5ResultRow}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkField, _ = interpOCLS.Field(row, "c_name")
	}
}
