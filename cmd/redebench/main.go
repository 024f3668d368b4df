// Command redebench regenerates Figure 7 of the paper: execution time of
// TPC-H Q5′ versus selectivity for three systems sharing one simulated
// cluster and cost model —
//
//   - impala: the scan + grace-hash-join baseline with static per-node
//     parallelism (no indexes);
//   - rede-nosmpe: ReDe using the structures but only the cluster's
//     partitioned parallelism;
//   - rede-smpe: ReDe with scalable massively parallel execution.
//
// It prints one row per selectivity with the three execution times and the
// ReDe-vs-baseline speedup. Absolute times are simulator times; the paper's
// claims are about the relative shape (who wins where, the crossover at
// high selectivity). The repository's benchmark — seeded, repeated, with
// spreads — is lakebench/; this command only prints the figure.
//
// With -budget N, the structures are built through the lifecycle manager
// under a residency budget of N modeled bytes instead of eagerly: cold
// structures get evicted as the budget fills, the Q5′ driver index is
// re-ensured (transparently rebuilt if it was the victim) before each run,
// and the lifecycle counters are reported at the end.
//
// With -sched N, the SMPE runs submit to one shared weighted-fair
// scheduler with an N-worker cluster-wide ceiling instead of the standing
// per-node worker sets — the same dispatch path a multi-tenant lakeserve
// uses.
//
// Usage:
//
//	go run ./cmd/redebench [-sf 0.2] [-nodes 4] [-cores 16] [-threads 1000]
//	    [-sched 0] [-region ASIA] [-sels 0.0001,0.001,...] [-seed 1] [-free]
//	    [-budget 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"lakeharbor/internal/advisor"
	"lakeharbor/internal/baseline"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/sched"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/tpch"
)

func main() {
	var (
		sf      = flag.Float64("sf", 0.5, "TPC-H micro scale factor")
		nodes   = flag.Int("nodes", 4, "simulated cluster nodes")
		cores   = flag.Int("cores", 16, "baseline static per-node parallelism")
		threads = flag.Int("threads", core.DefaultThreads, "SMPE per-node parallelism of one job (Options.Threads)")
		schedW  = flag.Int("sched", 0, "route SMPE runs through a shared weighted-fair scheduler with this cluster-wide worker ceiling (0 = standing per-node workers)")
		batch   = flag.Int("batch", core.DefaultMaxBatch, "max pointers coalesced per dereference task (1 = unbatched)")
		region  = flag.String("region", "ASIA", "Q5' region predicate")
		selsArg = flag.String("sels", "0.0001,0.001,0.01,0.05,0.1,0.3,1.0", "comma-separated selectivities")
		seed    = flag.Int64("seed", 1, "generator seed")
		free    = flag.Bool("free", false, "disable the I/O cost model (functional check only)")
		budget  = flag.Int64("budget", 0, "structure residency budget in modeled bytes; >0 builds through the lifecycle manager")
		showTr  = flag.Bool("trace", false, "print the per-stage execution trace of each SMPE run")
		slow    = flag.Duration("slow", 0, "flag tasks slower than this in the trace (0 = off)")
	)
	flag.Parse()

	sels, err := parseSels(*selsArg)
	if err != nil {
		log.Fatal(err)
	}

	cost := sim.HDDProfile()
	if *free {
		cost = sim.CostModel{}
	}
	ctx := context.Background()
	cluster := dfs.NewCluster(dfs.Config{Nodes: *nodes, Cost: cost})

	fmt.Fprintf(os.Stderr, "generating TPC-H (SF=%g, seed=%d)...\n", *sf, *seed)
	ds := tpch.Generate(tpch.Config{SF: *sf, Seed: *seed})
	fmt.Fprintf(os.Stderr, "loading %d orders, %d lineitems on %d nodes...\n",
		len(ds.Orders), len(ds.Lineitems), *nodes)
	if err := tpch.Load(ctx, cluster, ds, 0); err != nil {
		log.Fatal(err)
	}
	var mgr *indexer.Manager
	start := time.Now()
	if *budget > 0 {
		fmt.Fprintf(os.Stderr, "building structures under a %d-byte residency budget...\n", *budget)
		mgr, err = tpch.BuildManaged(ctx, cluster, indexer.ManagerOptions{
			StructureBudget: *budget,
			RebuildCost:     advisor.New(cluster, advisor.Config{}).BuildCostNs,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "structures built in %v; resident %d bytes, %d evicted\n\n",
			time.Since(start).Round(time.Millisecond), mgr.ResidentBytes(), mgr.Counters().Evictions)
	} else {
		fmt.Fprintf(os.Stderr, "building structures (date index + foreign-key global indexes)...\n")
		if err := tpch.BuildStructures(ctx, cluster); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "structures built in %v\n\n", time.Since(start).Round(time.Millisecond))
	}

	eng := baseline.New(cluster, *cores)
	var scheduler *sched.Scheduler
	if *schedW > 0 {
		scheduler, err = sched.New(sched.Options{Workers: *schedW, ShedDepth: -1},
			sched.TenantConfig{Name: "bench", Weight: 1})
		if err != nil {
			log.Fatal(err)
		}
		defer scheduler.Close()
		fmt.Fprintf(os.Stderr, "SMPE runs share a %d-worker scheduler (tenant %q)\n", *schedW, "bench")
	}

	fmt.Printf("# Figure 7: TPC-H Q5' execution time vs selectivity (%s, SF=%g, %d nodes)\n",
		*region, *sf, *nodes)
	fmt.Printf("%-12s %-8s %14s %16s %14s %10s\n",
		"selectivity", "rows", "impala", "rede-nosmpe", "rede-smpe", "speedup")
	for _, sel := range sels {
		lo, hi := tpch.DateRange(sel)
		if hi <= lo {
			hi = lo + 1
		}
		if mgr != nil {
			// Q5′ drives off the orders-date index; re-ensure it in case an
			// earlier build pushed it out of the budget (rebuild-on-demand).
			if err := mgr.Ensure(ctx, tpch.IdxOrdersDate); err != nil {
				log.Fatal(err)
			}
		}
		job, err := tpch.Q5Job(ctx, cluster, *region, lo, hi)
		if err != nil {
			log.Fatal(err)
		}

		t0 := time.Now()
		baseRows, err := tpch.RunQ5Baseline(ctx, eng, cluster, *region, lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		tImpala := time.Since(t0)

		plain, err := core.ExecutePlain(ctx, job, cluster, cluster, core.Options{})
		if err != nil {
			log.Fatal(err)
		}

		smpeOpts := core.Options{
			Threads:           *threads,
			InlineReferencers: true,
			MaxBatch:          *batch,
			SlowTaskThreshold: *slow,
			TraceLog:          log.Printf,
		}
		if scheduler != nil {
			smpeOpts.Tenant = "bench"
			smpeOpts.Scheduler = scheduler
		}
		smpe, err := core.Execute(ctx, job, cluster, cluster, smpeOpts)
		if err != nil {
			log.Fatal(err)
		}

		if plain.Count != baseRows || smpe.Count != baseRows {
			log.Fatalf("sel=%g: result mismatch: impala=%d nosmpe=%d smpe=%d",
				sel, baseRows, plain.Count, smpe.Count)
		}
		fmt.Printf("%-12g %-8d %14s %16s %14s %9.1fx\n",
			sel, baseRows,
			tImpala.Round(time.Microsecond),
			plain.Elapsed.Round(time.Microsecond),
			smpe.Elapsed.Round(time.Microsecond),
			float64(tImpala)/float64(smpe.Elapsed))
		if *showTr {
			fmt.Printf("\n# sel=%g SMPE execution trace\n%s\n", sel, smpe.Trace.Table())
		}
	}

	if mgr != nil {
		c := mgr.Counters()
		fmt.Fprintf(os.Stderr, "\nlifecycle: builds=%d deduped=%d rebuilds=%d evictions=%d resident=%d bytes (budget %d)\n",
			c.BuildsStarted, c.BuildsDeduped, c.Rebuilds, c.Evictions, mgr.ResidentBytes(), *budget)
	}
}

func parseSels(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad selectivity %q: %w", part, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("selectivity %g out of [0,1]", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no selectivities given")
	}
	return out, nil
}
