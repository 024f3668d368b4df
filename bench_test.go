package lakeharbor

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem .
//
// BenchmarkFig7* regenerates Figure 7 (TPC-H Q5' execution time vs
// selectivity for the scan/hash-join baseline, ReDe without SMPE, and ReDe
// with SMPE, sharing one simulated cluster and cost model). The reported
// ns/op of the three families, compared at equal sel= values, are the three
// curves of the figure. cmd/redebench prints the same data as one table.
//
// BenchmarkFig9* regenerates Figure 9 (record accesses of the claims
// queries on the normalized warehouse vs ReDe over raw nested claims); the
// "accesses/op" metric is the figure's y-axis before normalization.
//
// BenchmarkAblation* quantifies individual design choices: SMPE pool size,
// inline referencers, broadcast vs routed index probes.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/claims"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/planner"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/tpch"
)

// ---- Figure 7 ----

const (
	fig7SF     = 0.2
	fig7Nodes  = 4
	fig7Region = "ASIA"
)

var fig7Sels = []float64{0.0001, 0.001, 0.01, 0.1, 1.0}

var fig7State struct {
	once    sync.Once
	cluster *dfs.Cluster
	ds      *tpch.Dataset
	eng     *baseline.Engine
	err     error
}

func fig7Setup(b *testing.B) (*dfs.Cluster, *tpch.Dataset, *baseline.Engine) {
	b.Helper()
	fig7State.once.Do(func() {
		ctx := context.Background()
		cluster := dfs.NewCluster(dfs.Config{Nodes: fig7Nodes, Cost: sim.HDDProfile()})
		ds := tpch.Generate(tpch.Config{SF: fig7SF, Seed: 1})
		if err := tpch.Load(ctx, cluster, ds, 0); err != nil {
			fig7State.err = err
			return
		}
		if err := tpch.BuildStructures(ctx, cluster); err != nil {
			fig7State.err = err
			return
		}
		fig7State.cluster = cluster
		fig7State.ds = ds
		fig7State.eng = baseline.New(cluster, 16)
	})
	if fig7State.err != nil {
		b.Fatal(fig7State.err)
	}
	return fig7State.cluster, fig7State.ds, fig7State.eng
}

func fig7Range(sel float64) (int, int) {
	lo, hi := tpch.DateRange(sel)
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// BenchmarkFig7Impala is the baseline curve: full scans + grace hash joins
// with static per-node parallelism.
func BenchmarkFig7Impala(b *testing.B) {
	cluster, ds, eng := fig7Setup(b)
	ctx := context.Background()
	for _, sel := range fig7Sels {
		b.Run(fmt.Sprintf("sel=%g", sel), func(b *testing.B) {
			lo, hi := fig7Range(sel)
			want := ds.OracleQ5(fig7Region, lo, hi)
			for i := 0; i < b.N; i++ {
				got, err := tpch.RunQ5Baseline(ctx, eng, cluster, fig7Region, lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("rows = %d, want %d", got, want)
				}
			}
			b.ReportMetric(float64(want), "rows")
		})
	}
}

// BenchmarkFig7ReDeNoSMPE is the "ReDe (w/o SMPE)" curve: index-based plans
// with only the cluster's partitioned parallelism.
func BenchmarkFig7ReDeNoSMPE(b *testing.B) {
	cluster, ds, _ := fig7Setup(b)
	ctx := context.Background()
	for _, sel := range fig7Sels {
		b.Run(fmt.Sprintf("sel=%g", sel), func(b *testing.B) {
			lo, hi := fig7Range(sel)
			want := ds.OracleQ5(fig7Region, lo, hi)
			job, err := tpch.Q5Job(ctx, cluster, fig7Region, lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.ExecutePlain(ctx, job, cluster, cluster, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != want {
					b.Fatalf("rows = %d, want %d", res.Count, want)
				}
			}
			b.ReportMetric(float64(want), "rows")
		})
	}
}

// BenchmarkFig7ReDeSMPE is the "ReDe (w/ SMPE)" curve: the same plans
// executed with scalable massively parallel execution.
func BenchmarkFig7ReDeSMPE(b *testing.B) {
	cluster, ds, _ := fig7Setup(b)
	ctx := context.Background()
	for _, sel := range fig7Sels {
		b.Run(fmt.Sprintf("sel=%g", sel), func(b *testing.B) {
			lo, hi := fig7Range(sel)
			want := ds.OracleQ5(fig7Region, lo, hi)
			job, err := tpch.Q5Job(ctx, cluster, fig7Region, lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != want {
					b.Fatalf("rows = %d, want %d", res.Count, want)
				}
			}
			b.ReportMetric(float64(want), "rows")
		})
	}
}

// ---- Figure 9 ----

const fig9Claims = 5000

var fig9State struct {
	once   sync.Once
	lakeC  *dfs.Cluster
	whC    *dfs.Cluster
	corpus *claims.Corpus
	err    error
}

func fig9Setup(b *testing.B) (*dfs.Cluster, *dfs.Cluster, *claims.Corpus) {
	b.Helper()
	fig9State.once.Do(func() {
		ctx := context.Background()
		corpus := claims.Generate(claims.Config{Claims: fig9Claims, Seed: 2024})
		lakeC := dfs.NewCluster(dfs.Config{Nodes: fig7Nodes})
		if err := claims.LoadLake(ctx, lakeC, corpus, 0); err != nil {
			fig9State.err = err
			return
		}
		whC := dfs.NewCluster(dfs.Config{Nodes: fig7Nodes})
		if err := claims.LoadWarehouse(ctx, whC, corpus, 0); err != nil {
			fig9State.err = err
			return
		}
		fig9State.lakeC, fig9State.whC, fig9State.corpus = lakeC, whC, corpus
	})
	if fig9State.err != nil {
		b.Fatal(fig9State.err)
	}
	return fig9State.lakeC, fig9State.whC, fig9State.corpus
}

// BenchmarkFig9Warehouse measures the normalized-warehouse arm; the
// accesses/op metric is Fig. 9's unit (the DW bar, later normalized
// to 1.0).
func BenchmarkFig9Warehouse(b *testing.B) {
	_, whC, corpus := fig9Setup(b)
	ctx := context.Background()
	for _, q := range claims.Queries {
		b.Run(q.Name, func(b *testing.B) {
			var accesses int64
			for i := 0; i < b.N; i++ {
				res, err := claims.RunWarehouse(ctx, whC, q, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				wantClaims, wantExpense := corpus.Oracle(q.Disease, q.MedicineClass)
				if res.Claims != wantClaims || res.Expense != wantExpense {
					b.Fatalf("result (%d,%d) != oracle (%d,%d)", res.Claims, res.Expense, wantClaims, wantExpense)
				}
				accesses = res.RecordAccesses
			}
			b.ReportMetric(float64(accesses), "accesses/op")
		})
	}
}

// BenchmarkFig9ReDe measures the LakeHarbor arm of Fig. 9: raw nested
// claims + post hoc index, no joins — with the options a lakeserve tenant
// gets (inlined referencers, DefaultMaxBatch pointer batches), the path
// lakebench's fig9_tenants runs.
func BenchmarkFig9ReDe(b *testing.B) {
	lakeC, _, corpus := fig9Setup(b)
	ctx := context.Background()
	opts := core.Options{InlineReferencers: true, MaxBatch: core.DefaultMaxBatch}
	for _, q := range claims.Queries {
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			var accesses int64
			for i := 0; i < b.N; i++ {
				res, err := claims.RunReDe(ctx, lakeC, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				wantClaims, wantExpense := corpus.Oracle(q.Disease, q.MedicineClass)
				if res.Claims != wantClaims || res.Expense != wantExpense {
					b.Fatalf("result (%d,%d) != oracle (%d,%d)", res.Claims, res.Expense, wantClaims, wantExpense)
				}
				accesses = res.RecordAccesses
			}
			b.ReportMetric(float64(accesses), "accesses/op")
		})
	}
}

// ---- Ablations ----

// BenchmarkAblationThreads sweeps the SMPE pool size on Q5' at a fixed
// selectivity: the transition from 1 (w/o SMPE) through the paper's 1000
// shows how much parallelism beyond the core count buys.
func BenchmarkAblationThreads(b *testing.B) {
	cluster, _, _ := fig7Setup(b)
	ctx := context.Background()
	lo, hi := fig7Range(0.05)
	job, err := tpch.Q5Job(ctx, cluster, fig7Region, lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 8, 64, 256, 1000} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Execute(ctx, job, cluster, cluster,
					core.Options{Threads: threads, InlineReferencers: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInlineReferencers compares running referencers inline on
// the producing worker (the paper's default, avoiding thread switches for
// CPU-light functions) against dispatching them as queue tasks.
func BenchmarkAblationInlineReferencers(b *testing.B) {
	cluster, _, _ := fig7Setup(b)
	ctx := context.Background()
	lo, hi := fig7Range(0.05)
	job, err := tpch.Q5Job(ctx, cluster, fig7Region, lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	for _, inline := range []bool{true, false} {
		name := "inline"
		if !inline {
			name = "queued"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Execute(ctx, job, cluster, cluster,
					core.Options{Threads: 256, InlineReferencers: inline}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBroadcastVsRouted compares a routed global-index probe
// (pointers carry partition keys) against the broadcast expression of the
// same join (pointers replicated to every partition).
func BenchmarkAblationBroadcastVsRouted(b *testing.B) {
	cluster, _, _ := fig7Setup(b)
	ctx := context.Background()
	for _, broadcast := range []bool{false, true} {
		name := "routed"
		if broadcast {
			name = "broadcast"
		}
		b.Run(name, func(b *testing.B) {
			job, err := partLineJoinJob(broadcast)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// partLineJoinJob builds the Fig. 3/4 Part⋈Lineitem join with the
// l_partkey index probed either routed or broadcast.
func partLineJoinJob(broadcast bool) (*core.Job, error) {
	seeds := []Pointer{{
		File:   tpch.IdxPartPrice,
		NoPart: true,
		Key:    KeyFloat64(950),
		EndKey: KeyFloat64(1050),
	}}
	return core.NewJob("part-line-ablation", seeds,
		core.RangeDeref{File: tpch.IdxPartPrice},
		core.EntryRef{Target: tpch.FilePart},
		core.LookupDeref{File: tpch.FilePart},
		core.FieldRef{Target: tpch.IdxLineitemPart, Interp: tpch.InterpPart,
			Field: "p_partkey", Encode: tpch.EncodeInt, Broadcast: broadcast},
		core.LookupDeref{File: tpch.IdxLineitemPart},
		core.EntryRef{Target: tpch.FileLineitem},
		core.LookupDeref{File: tpch.FileLineitem},
	)
}

// BenchmarkAblationMaxBatch sweeps the pointer-batch size on the Fig. 7
// SMPE arm at a fixed selectivity. The admissions/op metric is the point of
// the batching refactor: at MaxBatch=64 the job must reach storage with
// fewer gate admissions than at MaxBatch=1 (one admission covers a whole
// batch), and meanbatch/op shows the batch size the coalescer achieved.
func BenchmarkAblationMaxBatch(b *testing.B) {
	cluster, ds, _ := fig7Setup(b)
	ctx := context.Background()
	lo, hi := fig7Range(0.05)
	want := ds.OracleQ5(fig7Region, lo, hi)
	job, err := tpch.Q5Job(ctx, cluster, fig7Region, lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var admissions, batches, batched float64
			for i := 0; i < b.N; i++ {
				before := cluster.TotalMetrics()
				res, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{MaxBatch: batch})
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != want {
					b.Fatalf("rows = %d, want %d", res.Count, want)
				}
				admissions = float64(cluster.TotalMetrics().Sub(before).Lookups)
				batches = float64(res.Trace.TotalBatches())
				batched = float64(res.Trace.TotalBatchedPtrs())
			}
			b.ReportMetric(admissions, "admissions/op")
			if batches > 0 {
				b.ReportMetric(batched/batches, "meanbatch/op")
			}
		})
	}
}

// BenchmarkPlannerAdaptive runs the declarative Q5'-shaped query through
// the planner (§V-A/§V-D): at each selectivity it estimates, picks index
// vs scan, and executes — so across the sweep its time should track the
// better of BenchmarkFig7Impala and BenchmarkFig7ReDeSMPE, closing the
// high-selectivity gap of Figure 7.
func BenchmarkPlannerAdaptive(b *testing.B) {
	cluster, _, _ := fig7Setup(b)
	ctx := context.Background()
	pl := planner.New(cluster, 16)
	orders := planner.Table{Name: tpch.FileOrders, Interp: tpch.InterpOrders, Key: "o_orderkey", Encode: tpch.EncodeInt}
	customer := planner.Table{Name: tpch.FileCustomer, Interp: tpch.InterpCustomer, Key: "c_custkey", Encode: tpch.EncodeInt}
	lineitem := planner.Table{Name: tpch.FileLineitem, Interp: tpch.InterpLineitem, Key: "l_orderkey", Encode: tpch.EncodeInt}
	for _, sel := range fig7Sels {
		b.Run(fmt.Sprintf("sel=%g", sel), func(b *testing.B) {
			lo, hi := fig7Range(sel)
			q := &planner.Query{
				Name:        "q5-planner",
				From:        orders,
				DriverIndex: tpch.IdxOrdersDate,
				DriverLo:    keycodec.Int64(int64(lo)),
				DriverHi:    keycodec.Int64(int64(hi - 1)),
				DriverPred: func(f core.Fields) (bool, error) {
					day, _ := f.Get("o_orderdate")
					d, err := tpch.EncodeInt(nil, day)
					if err != nil {
						return false, err
					}
					return string(d) >= keycodec.Int64(int64(lo)) && string(d) <= keycodec.Int64(int64(hi-1)), nil
				},
				Joins: []planner.Join{
					{FromField: "o_custkey", To: customer},
					{FromField: "o_orderkey", To: lineitem, ToField: "l_orderkey", Prefix: true},
				},
			}
			for i := 0; i < b.N; i++ {
				p, err := pl.Plan(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Execute(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSpindles sweeps the per-node I/O service concurrency
// (the paper's 24-HDD arrays): SMPE's win over the baseline comes from
// saturating exactly this resource, so Q5' time at fixed selectivity
// should fall roughly linearly with spindles until the workload's own
// parallelism runs out.
func BenchmarkAblationSpindles(b *testing.B) {
	ctx := context.Background()
	for _, spindles := range []int{4, 24, 96} {
		b.Run(fmt.Sprintf("spindles=%d", spindles), func(b *testing.B) {
			cost := sim.HDDProfile()
			cost.Spindles = spindles
			cluster := dfs.NewCluster(dfs.Config{Nodes: fig7Nodes, Cost: cost})
			ds := tpch.Generate(tpch.Config{SF: fig7SF, Seed: 1})
			if err := tpch.Load(ctx, cluster, ds, 0); err != nil {
				b.Fatal(err)
			}
			if err := tpch.BuildStructures(ctx, cluster); err != nil {
				b.Fatal(err)
			}
			lo, hi := fig7Range(0.2)
			job, err := tpch.Q5Job(ctx, cluster, fig7Region, lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTimeline measures the overhead of timeline event capture
// on the Fig. 7 query: events=on is the default (event ring + per-task
// events), events=off disables capture with EventCap -1. The acceptance
// budget for the observability layer is <=5% on the "on" arm; latency
// histograms stay enabled in both arms (they are not optional).
func BenchmarkAblationTimeline(b *testing.B) {
	cluster, ds, _ := fig7Setup(b)
	ctx := context.Background()
	lo, hi := fig7Range(0.05)
	want := ds.OracleQ5(fig7Region, lo, hi)
	job, err := tpch.Q5Job(ctx, cluster, fig7Region, lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		cap  int
	}{{"events=off", -1}, {"events=on", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			var events, dropped float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{EventCap: mode.cap})
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != want {
					b.Fatalf("rows = %d, want %d", res.Count, want)
				}
				events = float64(len(res.Trace.Events))
				dropped = float64(res.Trace.EventsDropped)
			}
			b.ReportMetric(events, "events/op")
			b.ReportMetric(dropped, "dropped/op")
		})
	}
}
