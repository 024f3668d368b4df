package tpch

import (
	"context"
	"strconv"
	"testing"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 0.05, Seed: 42})
	b := Generate(Config{SF: 0.05, Seed: 42})
	if len(a.Lineitems) != len(b.Lineitems) {
		t.Fatalf("non-deterministic lineitem count: %d vs %d", len(a.Lineitems), len(b.Lineitems))
	}
	for i := range a.Lineitems {
		if a.Lineitems[i] != b.Lineitems[i] {
			t.Fatalf("lineitem %d differs", i)
		}
	}
	c := Generate(Config{SF: 0.05, Seed: 43})
	if len(c.Lineitems) == len(a.Lineitems) && c.Lineitems[0] == a.Lineitems[0] {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateCardinalities(t *testing.T) {
	ds := Generate(Config{SF: 0.1, Seed: 1})
	if len(ds.Regions) != 5 || len(ds.Nations) != 25 {
		t.Errorf("regions/nations = %d/%d, want 5/25", len(ds.Regions), len(ds.Nations))
	}
	if len(ds.Customers) != 150 {
		t.Errorf("customers = %d, want 150", len(ds.Customers))
	}
	if len(ds.Orders) != 1500 {
		t.Errorf("orders = %d, want 1500", len(ds.Orders))
	}
	if len(ds.Parts) != 200 {
		t.Errorf("parts = %d, want 200", len(ds.Parts))
	}
	avg := float64(len(ds.Lineitems)) / float64(len(ds.Orders))
	if avg < 2.5 || avg > 5.5 {
		t.Errorf("lineitems per order = %.2f, want ~4", avg)
	}
	// Every order date in domain; every FK resolvable.
	nSupp, nCust, nPart := int64(len(ds.Suppliers)), int64(len(ds.Customers)), int64(len(ds.Parts))
	for _, o := range ds.Orders {
		if o.OrderDate < 0 || o.OrderDate >= DateDays {
			t.Fatalf("order date %d out of domain", o.OrderDate)
		}
		if o.CustKey < 1 || o.CustKey > nCust {
			t.Fatalf("order custkey %d out of range", o.CustKey)
		}
	}
	for _, l := range ds.Lineitems {
		if l.SuppKey < 1 || l.SuppKey > nSupp {
			t.Fatalf("lineitem suppkey %d out of range", l.SuppKey)
		}
		if l.PartKey < 1 || l.PartKey > nPart {
			t.Fatalf("lineitem partkey %d out of range", l.PartKey)
		}
	}
	// Order keys strictly increasing (sparse as in TPC-H).
	for i := 1; i < len(ds.Orders); i++ {
		if ds.Orders[i].OrderKey <= ds.Orders[i-1].OrderKey {
			t.Fatal("order keys not strictly increasing")
		}
	}
	if ds.Config.SF != 0.1 {
		t.Error("config not recorded")
	}
	// Zero SF defaults to 1.
	d2 := Generate(Config{Seed: 1})
	if len(d2.Customers) != 1500 {
		t.Errorf("default SF customers = %d, want 1500", len(d2.Customers))
	}
}

func TestNationsOfRegion(t *testing.T) {
	ds := Generate(Config{SF: 0.01, Seed: 1})
	asia := ds.NationsOfRegion("ASIA")
	if len(asia) != 5 {
		t.Errorf("ASIA has %d nations, want 5", len(asia))
	}
	if !asia[12] { // JAPAN is nation 12 in our table
		t.Error("JAPAN missing from ASIA")
	}
	if len(ds.NationsOfRegion("NOWHERE")) != 0 {
		t.Error("unknown region returned nations")
	}
}

// loadedCluster builds a cluster, loads a dataset, and builds structures.
func loadedCluster(t testing.TB, sf float64, nodes int) (*dfs.Cluster, *Dataset) {
	t.Helper()
	return loadDataset(t, Generate(Config{SF: sf, Seed: 7}), nodes)
}

// datasetWithQ5Rows generates datasets from the suite's usual seed upwards
// until one's Q5′ over (region, [lo, hi)) returns rows, so a test of those
// rows cannot pass by having none to look at.
func datasetWithQ5Rows(t testing.TB, sf float64, region string, lo, hi int) *Dataset {
	t.Helper()
	for seed := int64(7); seed < 7+32; seed++ {
		if ds := Generate(Config{SF: sf, Seed: seed}); ds.OracleQ5(region, lo, hi) > 0 {
			return ds
		}
	}
	t.Fatalf("no dataset seed in [7, 39) gives Q5′ rows for %s [%d, %d) at SF %g", region, lo, hi, sf)
	return nil
}

func loadDataset(t testing.TB, ds *Dataset, nodes int) (*dfs.Cluster, *Dataset) {
	t.Helper()
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: nodes})
	if err := Load(ctx, c, ds, 0); err != nil {
		t.Fatal(err)
	}
	if err := BuildStructures(ctx, c); err != nil {
		t.Fatal(err)
	}
	return c, ds
}

func TestLoadCounts(t *testing.T) {
	c, ds := loadedCluster(t, 0.05, 3)
	checks := map[string]int{
		FileRegion:      len(ds.Regions),
		FileNation:      len(ds.Nations),
		FileSupplier:    len(ds.Suppliers),
		FileCustomer:    len(ds.Customers),
		FilePart:        len(ds.Parts),
		FileOrders:      len(ds.Orders),
		FileLineitem:    len(ds.Lineitems),
		IdxOrdersDate:   len(ds.Orders),
		IdxPartPrice:    len(ds.Parts),
		IdxOrdersCust:   len(ds.Orders),
		IdxLineitemPart: len(ds.Lineitems),
		IdxLineitemSupp: len(ds.Lineitems),
	}
	for name, want := range checks {
		got, err := c.Len(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s has %d records, want %d", name, got, want)
		}
	}
}

func TestLoadRecordsFindable(t *testing.T) {
	ctx := context.Background()
	c, ds := loadedCluster(t, 0.02, 2)
	f, err := c.File(FileOrders)
	if err != nil {
		t.Fatal(err)
	}
	o := ds.Orders[len(ds.Orders)/2]
	k := OrderKey(o.OrderKey)
	p := f.Partitioner().Partition(k, f.NumPartitions())
	recs, err := f.Lookup(ctx, p, k)
	if err != nil || len(recs) != 1 {
		t.Fatalf("order lookup: %v %v", recs, err)
	}
	if string(recs[0].Data) != o.Raw() {
		t.Errorf("stored %q, want %q", recs[0].Data, o.Raw())
	}
	fields, err := InterpOrders(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if get(fields, "o_orderkey") == "" || get(fields, "o_orderdate") == "" {
		t.Errorf("interpreter fields: %v", fields)
	}
}

func TestInterpretersRejectMalformed(t *testing.T) {
	bad := lake.Record{Data: []byte("only|two")}
	if _, err := InterpOrders(bad); err == nil {
		t.Error("InterpOrders accepted malformed record")
	}
	if _, err := InterpLineitem(bad); err == nil {
		t.Error("InterpLineitem accepted malformed record")
	}
	if _, err := EncodeInt(nil, "abc"); err == nil {
		t.Error("EncodeInt accepted non-integer")
	}
	if _, err := EncodeFloat(nil, "abc"); err == nil {
		t.Error("EncodeFloat accepted non-decimal")
	}
}

func TestDateHelpers(t *testing.T) {
	lo, hi := DateRange(0.5)
	if lo != 0 || hi < DateDays/2 || hi > DateDays/2+2 {
		t.Errorf("DateRange(0.5) = [%d,%d)", lo, hi)
	}
	if _, hi := DateRange(2); hi != DateDays {
		t.Error("selectivity clamped above 1 should cover the domain")
	}
	if _, hi := DateRange(-1); hi != 0 {
		t.Error("negative selectivity should yield empty range")
	}
	if FormatDate(0) != "1992-01-01" {
		t.Errorf("FormatDate(0) = %s", FormatDate(0))
	}
	if FormatDate(31) != "1992-02-01" {
		t.Errorf("FormatDate(31) = %s", FormatDate(31))
	}
}

func TestNationsOfRegionLake(t *testing.T) {
	ctx := context.Background()
	c, ds := loadedCluster(t, 0.01, 1)
	nations, err := NationsOfRegionLake(ctx, c, "EUROPE")
	if err != nil {
		t.Fatal(err)
	}
	want := ds.NationsOfRegion("EUROPE")
	if len(nations) != len(want) {
		t.Fatalf("lake nations = %v, oracle size %d", nations, len(want))
	}
	if _, err := NationsOfRegionLake(ctx, c, "ATLANTIS"); err == nil {
		t.Error("unknown region should fail")
	}
}

func TestQ5AllEnginesAgree(t *testing.T) {
	ctx := context.Background()
	c, ds := loadedCluster(t, 0.05, 3)
	eng := baseline.New(c, 4)
	for _, sel := range []float64{0.001, 0.01, 0.05, 0.2} {
		lo, hi := DateRange(sel)
		if hi == lo {
			hi = lo + 1
		}
		want := ds.OracleQ5("ASIA", lo, hi)

		job, err := Q5Job(ctx, c, "ASIA", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		smpe, err := core.ExecuteSMPE(ctx, job, c, c, core.Options{Threads: 64})
		if err != nil {
			t.Fatal(err)
		}
		if smpe.Count != want {
			t.Errorf("sel=%g: ReDe SMPE = %d, oracle = %d", sel, smpe.Count, want)
		}
		plain, err := core.ExecutePlain(ctx, job, c, c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Count != want {
			t.Errorf("sel=%g: ReDe plain = %d, oracle = %d", sel, plain.Count, want)
		}
		base, err := RunQ5Baseline(ctx, eng, c, "ASIA", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if base != want {
			t.Errorf("sel=%g: baseline = %d, oracle = %d", sel, base, want)
		}
	}
}

func TestQ5CompositeResultInterpretable(t *testing.T) {
	ctx := context.Background()
	lo, hi := DateRange(0.1)
	c, ds := loadDataset(t, datasetWithQ5Rows(t, 0.03, "AMERICA", lo, hi), 2)
	job, err := Q5Job(ctx, c, "AMERICA", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ExecuteSMPE(ctx, job, c, c, core.Options{Threads: 32, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.OracleQ5("AMERICA", lo, hi); res.Count != want {
		t.Fatalf("Q5′ returned %d rows, oracle %d", res.Count, want)
	}
	nations := ds.NationsOfRegion("AMERICA")
	interp := core.Composite(InterpOrders, InterpCustomer, InterpLineitem, InterpSupplier)
	for _, r := range res.Records {
		f, err := interp(r)
		if err != nil {
			t.Fatal(err)
		}
		if get(f, "c_nationkey") != get(f, "s_nationkey") {
			t.Fatalf("result violates c_nationkey=s_nationkey: %v", f)
		}
		if get(f, "o_custkey") != get(f, "c_custkey") {
			t.Fatalf("result violates o_custkey=c_custkey: %v", f)
		}
		if get(f, "o_orderkey") != get(f, "l_orderkey") {
			t.Fatalf("result violates o_orderkey=l_orderkey: %v", f)
		}
		if get(f, "l_suppkey") != get(f, "s_suppkey") {
			t.Fatalf("result violates l_suppkey=s_suppkey: %v", f)
		}
		nk, err := strconv.ParseInt(get(f, "s_nationkey"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !nations[nk] {
			t.Fatalf("result supplier nation %d outside region", nk)
		}
	}
}

func TestQ5EmptyRangeRejected(t *testing.T) {
	ctx := context.Background()
	c, _ := loadedCluster(t, 0.01, 1)
	if _, err := Q5Job(ctx, c, "ASIA", 10, 10); err == nil {
		t.Error("empty date range should be rejected")
	}
	if _, err := Q5Job(ctx, c, "ATLANTIS", 0, 10); err == nil {
		t.Error("unknown region should be rejected")
	}
}

func TestPartLineitemJoinMatchesOracle(t *testing.T) {
	ctx := context.Background()
	c, ds := loadedCluster(t, 0.05, 3)
	lo, hi := 1000.0, 1400.0
	job, err := PartLineitemJoin(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ExecuteSMPE(ctx, job, c, c, core.Options{Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.OraclePartLineitem(lo, hi); res.Count != want {
		t.Errorf("part-lineitem join = %d, oracle = %d", res.Count, want)
	}
}

func TestLineitemKeyPrefixRange(t *testing.T) {
	// Every lineitem of an order — and only those — falls inside
	// PrefixRange of the order key.
	lo, hi := lake.PrefixRange(keycodec.Int64(42))
	in := LineitemKey(42, 3)
	if in < lo || in > hi {
		t.Error("lineitem key escapes its order's prefix range")
	}
	out := LineitemKey(43, 1)
	if out >= lo && out <= hi {
		t.Error("foreign lineitem key inside prefix range")
	}
}

func TestPartSuppGenerated(t *testing.T) {
	ds := Generate(Config{SF: 0.1, Seed: 1})
	if len(ds.PartSupps) != len(ds.Parts)*4 {
		t.Fatalf("partsupp rows = %d, want %d", len(ds.PartSupps), len(ds.Parts)*4)
	}
	nSupp := int64(len(ds.Suppliers))
	nPart := int64(len(ds.Parts))
	seen := map[[2]int64]bool{}
	for _, ps := range ds.PartSupps {
		if ps.PartKey < 1 || ps.PartKey > nPart || ps.SuppKey < 1 || ps.SuppKey > nSupp {
			t.Fatalf("partsupp keys out of range: %+v", ps)
		}
		k := [2]int64{ps.PartKey, ps.SuppKey}
		if seen[k] {
			t.Fatalf("duplicate partsupp pair %v", k)
		}
		seen[k] = true
	}
	// Loading includes partsupp.
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	if err := Load(ctx, c, ds, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.Len(FilePartSupp); n != len(ds.PartSupps) {
		t.Errorf("loaded partsupp = %d rows", n)
	}
	// Interpreter parses a stored row.
	f, _ := c.File(FilePartSupp)
	var got lake.Record
	f.Scan(ctx, 0, func(r lake.Record) error { got = r; return nil })
	fields, err := InterpPartSupp(got)
	if err != nil {
		t.Fatal(err)
	}
	if get(fields, "ps_partkey") == "" || get(fields, "ps_supplycost") == "" {
		t.Errorf("partsupp fields: %v", fields)
	}
}

func TestCustomerMktSegment(t *testing.T) {
	ds := Generate(Config{SF: 0.05, Seed: 1})
	counts := map[string]int{}
	for _, c := range ds.Customers {
		counts[c.MktSegment]++
	}
	if len(counts) != len(MktSegments) {
		t.Fatalf("segments used: %v", counts)
	}
	f, err := InterpCustomer(lake.Record{Data: []byte(ds.Customers[0].Raw())})
	if err != nil {
		t.Fatal(err)
	}
	if get(f, "c_mktsegment") != ds.Customers[0].MktSegment {
		t.Errorf("c_mktsegment = %q", get(f, "c_mktsegment"))
	}
}

func TestQ3AllEnginesAgree(t *testing.T) {
	ctx := context.Background()
	c, ds := loadedCluster(t, 0.05, 3)
	eng := baseline.New(c, 4)
	for _, seg := range []string{"BUILDING", "MACHINERY"} {
		for _, sel := range []float64{0.01, 0.1, 0.5} {
			_, hi := DateRange(sel)
			if hi == 0 {
				hi = 1
			}
			want := ds.OracleQ3(seg, hi)

			job, err := Q3Job(seg, hi)
			if err != nil {
				t.Fatal(err)
			}
			smpe, err := core.ExecuteSMPE(ctx, job, c, c, core.Options{Threads: 64})
			if err != nil {
				t.Fatal(err)
			}
			if smpe.Count != want {
				t.Errorf("%s sel=%g: ReDe = %d, oracle = %d", seg, sel, smpe.Count, want)
			}
			base, err := RunQ3Baseline(ctx, eng, seg, hi)
			if err != nil {
				t.Fatal(err)
			}
			if base != want {
				t.Errorf("%s sel=%g: baseline = %d, oracle = %d", seg, sel, base, want)
			}
		}
	}
	if _, err := Q3Job("BUILDING", 0); err == nil {
		t.Error("empty Q3 range accepted")
	}
}

// get reads one field of an interpreted record; a missing field reads "".
func get(f core.Fields, name string) string {
	v, _ := f.Get(name)
	return v
}
