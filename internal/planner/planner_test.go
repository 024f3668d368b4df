package planner

import (
	"context"
	"strings"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/tpch"
)

// q5Query declares Q5′ to the planner: the same query that
// internal/tpch.Q5Job hand-codes as a Reference-Dereference chain.
func q5Query(t testing.TB, ctx context.Context, cluster *dfs.Cluster, region string, loDay, hiDay int) *Query {
	t.Helper()
	nations, err := tpch.NationsOfRegionLake(ctx, cluster, region)
	if err != nil {
		t.Fatal(err)
	}
	orders := Table{Name: tpch.FileOrders, Interp: tpch.InterpOrders, Key: "o_orderkey", Encode: tpch.EncodeInt}
	customer := Table{Name: tpch.FileCustomer, Interp: tpch.InterpCustomer, Key: "c_custkey", Encode: tpch.EncodeInt}
	lineitem := Table{Name: tpch.FileLineitem, Interp: tpch.InterpLineitem, Key: "l_orderkey", Encode: tpch.EncodeInt}
	supplier := Table{Name: tpch.FileSupplier, Interp: tpch.InterpSupplier, Key: "s_suppkey", Encode: tpch.EncodeInt}

	return &Query{
		Name:        "q5-declarative",
		From:        orders,
		DriverIndex: tpch.IdxOrdersDate,
		DriverLo:    keycodec.Int64(int64(loDay)),
		DriverHi:    keycodec.Int64(int64(hiDay - 1)),
		DriverPred: func(f core.Fields) (bool, error) {
			d, err := tpch.EncodeInt(nil, get(f, "o_orderdate"))
			if err != nil {
				return false, err
			}
			return string(d) >= keycodec.Int64(int64(loDay)) && string(d) <= keycodec.Int64(int64(hiDay-1)), nil
		},
		Joins: []Join{
			{FromField: "o_custkey", To: customer,
				Pred: func(f core.Fields) (bool, error) { return nations[get(f, "c_nationkey")], nil }},
			{FromField: "o_orderkey", To: lineitem, ToField: "l_orderkey", Prefix: true},
			{FromField: "l_suppkey", To: supplier},
		},
		Where: func(f core.Fields) (bool, error) {
			return get(f, "s_nationkey") == get(f, "c_nationkey") && nations[get(f, "s_nationkey")], nil
		},
	}
}

func loadedCluster(t testing.TB, sf float64, nodes int, cost sim.CostModel) (*dfs.Cluster, *tpch.Dataset) {
	t.Helper()
	return loadDataset(t, tpch.Generate(tpch.Config{SF: sf, Seed: 7}), nodes, cost)
}

func loadDataset(t testing.TB, ds *tpch.Dataset, nodes int, cost sim.CostModel) (*dfs.Cluster, *tpch.Dataset) {
	t.Helper()
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: nodes, Cost: cost})
	if err := tpch.Load(ctx, c, ds, 0); err != nil {
		t.Fatal(err)
	}
	if err := tpch.BuildStructures(ctx, c); err != nil {
		t.Fatal(err)
	}
	return c, ds
}

func TestCompiledJobMatchesOracle(t *testing.T) {
	ctx := context.Background()
	cluster, ds := loadedCluster(t, 0.05, 3, sim.CostModel{})
	lo, hi := tpch.DateRange(0.2)
	q := q5Query(t, ctx, cluster, "ASIA", lo, hi)

	job, err := CompileJob(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.OracleQ5("ASIA", lo, hi); res.Count != want {
		t.Fatalf("compiled job count = %d, oracle = %d", res.Count, want)
	}
}

func TestScanPlanMatchesOracle(t *testing.T) {
	ctx := context.Background()
	cluster, ds := loadedCluster(t, 0.05, 3, sim.CostModel{})
	lo, hi := tpch.DateRange(0.2)
	q := q5Query(t, ctx, cluster, "ASIA", lo, hi)

	pl := New(cluster, 4)
	res, err := pl.executeScan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.OracleQ5("ASIA", lo, hi); res.Count != want {
		t.Fatalf("scan plan count = %d, oracle = %d", res.Count, want)
	}
}

func TestBothPlansReturnSameRows(t *testing.T) {
	ctx := context.Background()
	// The rows are the point: take the first dataset seed, from the suite's
	// usual one upwards, whose Q5′ returns some.
	lo, hi := tpch.DateRange(0.3)
	var ds *tpch.Dataset
	for seed := int64(7); seed < 7+32 && ds == nil; seed++ {
		if d := tpch.Generate(tpch.Config{SF: 0.03, Seed: seed}); d.OracleQ5("AMERICA", lo, hi) > 0 {
			ds = d
		}
	}
	if ds == nil {
		t.Fatalf("no dataset seed in [7, 39) gives Q5′ rows for AMERICA [%d, %d) at SF 0.03", lo, hi)
	}
	cluster, _ := loadDataset(t, ds, 2, sim.CostModel{})
	q := q5Query(t, ctx, cluster, "AMERICA", lo, hi)

	pl := New(cluster, 4)
	pl.SMPEOptions.KeepRecords = true

	job, err := CompileJob(q)
	if err != nil {
		t.Fatal(err)
	}
	idxRes, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{Threads: 32, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	scanRes, err := pl.executeScan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if idxRes.Count != scanRes.Count {
		t.Fatalf("index plan %d rows, scan plan %d rows", idxRes.Count, scanRes.Count)
	}
	if want := ds.OracleQ5("AMERICA", lo, hi); idxRes.Count != want {
		t.Fatalf("both plans return %d rows, oracle %d", idxRes.Count, want)
	}
	// Both plans' rows interpret identically with the same composite
	// interpreter.
	interp := core.Composite(tpch.InterpOrders, tpch.InterpCustomer, tpch.InterpLineitem, tpch.InterpSupplier)
	seen := map[string]int{}
	for _, r := range idxRes.Records {
		f, err := interp(r)
		if err != nil {
			t.Fatal(err)
		}
		seen[get(f, "o_orderkey")+"|"+get(f, "l_linenumber")+"|"+get(f, "s_suppkey")]++
	}
	for _, r := range scanRes.Records {
		f, err := interp(r)
		if err != nil {
			t.Fatal(err)
		}
		k := get(f, "o_orderkey") + "|" + get(f, "l_linenumber") + "|" + get(f, "s_suppkey")
		seen[k]--
		if seen[k] < 0 {
			t.Fatalf("scan plan produced extra row %s", k)
		}
	}
	for k, n := range seen {
		if n != 0 {
			t.Fatalf("row %s differs between plans (%+d)", k, n)
		}
	}
}

func TestPlanChoosesBySelectivity(t *testing.T) {
	ctx := context.Background()
	cluster, ds := loadedCluster(t, 0.1, 3, sim.HDDProfile())
	pl := New(cluster, 16)

	// Very selective: the index plan must win.
	lo, hi := tpch.DateRange(0.0005)
	if hi <= lo {
		hi = lo + 1
	}
	p, err := pl.Plan(ctx, q5Query(t, ctx, cluster, "ASIA", lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != IndexPlan {
		t.Errorf("selective query planned as %s (idx=%v scan=%v)", p.Strategy, p.EstimatedIndexCost, p.EstimatedScanCost)
	}

	// Unselective: the scan plan must win.
	lo, hi = tpch.DateRange(1.0)
	p2, err := pl.Plan(ctx, q5Query(t, ctx, cluster, "ASIA", lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Strategy != ScanPlan {
		t.Errorf("full-range query planned as %s (idx=%v scan=%v)", p2.Strategy, p2.EstimatedIndexCost, p2.EstimatedScanCost)
	}
	if p2.EstimatedDriverRows <= p.EstimatedDriverRows {
		t.Errorf("estimates not monotone: %d vs %d", p.EstimatedDriverRows, p2.EstimatedDriverRows)
	}

	// Both chosen plans produce the oracle answer.
	res, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	loS, hiS := tpch.DateRange(0.0005)
	if hiS <= loS {
		hiS = loS + 1
	}
	if want := ds.OracleQ5("ASIA", loS, hiS); res.Count != want {
		t.Errorf("index plan execute = %d, oracle = %d", res.Count, want)
	}
	res2, err := p2.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	loF, hiF := tpch.DateRange(1.0)
	if want := ds.OracleQ5("ASIA", loF, hiF); res2.Count != want {
		t.Errorf("scan plan execute = %d, oracle = %d", res2.Count, want)
	}

	if !strings.Contains(p.Explain(), "strategy=index") {
		t.Errorf("Explain: %s", p.Explain())
	}
	if !strings.Contains(p2.Explain(), "strategy=scan") {
		t.Errorf("Explain: %s", p2.Explain())
	}
}

func TestEstimateRangeRowsHash(t *testing.T) {
	ctx := context.Background()
	cluster, ds := loadedCluster(t, 0.1, 2, sim.CostModel{})
	lo, hi := tpch.DateRange(0.25)
	est, err := EstimateRangeRows(ctx, cluster, tpch.IdxOrdersDate,
		keycodec.Int64(int64(lo)), keycodec.Int64(int64(hi-1)))
	if err != nil {
		t.Fatal(err)
	}
	exact := int64(0)
	for _, o := range ds.Orders {
		if o.OrderDate >= lo && o.OrderDate < hi {
			exact++
		}
	}
	if est < exact/2 || est > exact*2 {
		t.Errorf("estimate %d too far from exact %d", est, exact)
	}
}

func TestEstimateRangeRowsRangePartitioned(t *testing.T) {
	ctx := context.Background()
	cluster := dfs.NewCluster(dfs.Config{Nodes: 2})
	rp := lake.NewRangePartitioner(keycodec.Int64(100), keycodec.Int64(200))
	f, err := cluster.CreateFile("ridx", dfs.Btree, 3, rp)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		k := keycodec.Int64(i)
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	est, err := EstimateRangeRows(ctx, cluster, "ridx", keycodec.Int64(50), keycodec.Int64(249))
	if err != nil {
		t.Fatal(err)
	}
	if est != 200 {
		t.Errorf("range-partitioned estimate = %d, want exactly 200", est)
	}
}

func TestQueryValidation(t *testing.T) {
	good := Table{Name: "t", Interp: tpch.InterpOrders, Key: "k", Encode: tpch.EncodeInt}
	pred := func(core.Fields) (bool, error) { return true, nil }
	cases := []struct {
		name string
		q    Query
	}{
		{"no from", Query{DriverIndex: "i", DriverPred: pred}},
		{"no index", Query{From: good, DriverPred: pred}},
		{"no driver pred", Query{From: good, DriverIndex: "i"}},
		{"inverted range", Query{From: good, DriverIndex: "i", DriverPred: pred, DriverLo: "z", DriverHi: "a"}},
		{"bad join target", Query{From: good, DriverIndex: "i", DriverPred: pred, Joins: []Join{{FromField: "f"}}}},
		{"no join field", Query{From: good, DriverIndex: "i", DriverPred: pred, Joins: []Join{{To: good}}}},
		{"index and prefix", Query{From: good, DriverIndex: "i", DriverPred: pred,
			Joins: []Join{{FromField: "f", To: good, ViaIndex: "x", Prefix: true}}}},
	}
	for _, c := range cases {
		if err := c.q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid query", c.name)
		}
	}
}

func TestCompileViaIndexJoin(t *testing.T) {
	// A join through a global index (the Fig. 3/4 pattern) compiled by the
	// planner must match the hand-written tpch job.
	ctx := context.Background()
	cluster, ds := loadedCluster(t, 0.05, 2, sim.CostModel{})
	part := Table{Name: tpch.FilePart, Interp: tpch.InterpPart, Key: "p_partkey", Encode: tpch.EncodeInt}
	lineitem := Table{Name: tpch.FileLineitem, Interp: tpch.InterpLineitem, Key: "l_orderkey", Encode: tpch.EncodeInt}
	loP, hiP := 1000.0, 1400.0
	q := &Query{
		Name:        "part-line-planner",
		From:        part,
		DriverIndex: tpch.IdxPartPrice,
		DriverLo:    keycodec.Float64(loP),
		DriverHi:    keycodec.Float64(hiP),
		DriverPred: func(f core.Fields) (bool, error) {
			k, err := tpch.EncodeFloat(nil, get(f, "p_retailprice"))
			if err != nil {
				return false, err
			}
			return string(k) >= keycodec.Float64(loP) && string(k) <= keycodec.Float64(hiP), nil
		},
		Joins: []Join{
			{FromField: "p_partkey", To: lineitem, ToField: "l_partkey", ViaIndex: tpch.IdxLineitemPart},
		},
	}
	job, err := CompileJob(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.OraclePartLineitem(loP, hiP); res.Count != want {
		t.Fatalf("planner via-index join = %d, oracle = %d", res.Count, want)
	}
	// The scan plan agrees too.
	pl := New(cluster, 4)
	sres, err := pl.executeScan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Count != res.Count {
		t.Fatalf("scan plan = %d, index plan = %d", sres.Count, res.Count)
	}
}

func TestSelectionOnlyQuery(t *testing.T) {
	ctx := context.Background()
	cluster, ds := loadedCluster(t, 0.05, 2, sim.CostModel{})
	orders := Table{Name: tpch.FileOrders, Interp: tpch.InterpOrders, Key: "o_orderkey", Encode: tpch.EncodeInt}
	lo, hi := tpch.DateRange(0.1)
	q := &Query{
		Name:        "orders-by-date",
		From:        orders,
		DriverIndex: tpch.IdxOrdersDate,
		DriverLo:    keycodec.Int64(int64(lo)),
		DriverHi:    keycodec.Int64(int64(hi - 1)),
		DriverPred: func(f core.Fields) (bool, error) {
			d, err := tpch.EncodeInt(nil, get(f, "o_orderdate"))
			if err != nil {
				return false, err
			}
			return string(d) >= keycodec.Int64(int64(lo)) && string(d) <= keycodec.Int64(int64(hi-1)), nil
		},
	}
	job, err := CompileJob(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, o := range ds.Orders {
		if o.OrderDate >= lo && o.OrderDate < hi {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("selection = %d, want %d", res.Count, want)
	}
	pl := New(cluster, 4)
	sres, err := pl.executeScan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Count != want {
		t.Fatalf("scan selection = %d, want %d", sres.Count, want)
	}
}

// get reads one field of an interpreted record; a missing field reads "".
func get(f core.Fields, name string) string {
	v, _ := f.Get(name)
	return v
}
