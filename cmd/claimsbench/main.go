// Command claimsbench regenerates Figure 9 of the paper: the number of
// record accesses for queries Q1–Q3 over Japanese insurance claims, on a
// data warehouse system (data normalized into relational tables, queried
// with joins under fine-grained massively parallel execution) versus a
// LakeHarbor system (raw nested claims with a post hoc disease index,
// queried with schema-on-read — no joins). Numbers are normalized to the
// warehouse system, as in the paper.
//
// The repository's benchmark — seeded, repeated, with spreads — is
// lakebench/; this command only prints the figure.
//
// With -budget N, the lake arm's disease index is built through the
// lifecycle manager under a residency budget of N modeled bytes: the index
// stays registered-but-absent until the first query demands it (Ensure),
// and the lifecycle counters are reported at the end.
//
// With -sched N, both arms submit to one shared weighted-fair scheduler
// with an N-worker cluster-wide ceiling instead of the standing per-node
// worker sets.
//
// Usage:
//
//	go run ./cmd/claimsbench [-claims 20000] [-nodes 4] [-seed 2024]
//	    [-sched 0] [-budget 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"lakeharbor/internal/claims"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/sched"
)

func main() {
	var (
		nClaims  = flag.Int("claims", 20000, "number of synthetic claims")
		nodes    = flag.Int("nodes", 4, "simulated cluster nodes")
		seed     = flag.Int64("seed", 2024, "generator seed")
		batch    = flag.Int("batch", core.DefaultMaxBatch, "max pointers coalesced per dereference task (1 = unbatched)")
		schedW   = flag.Int("sched", 0, "route both arms through a shared weighted-fair scheduler with this cluster-wide worker ceiling (0 = standing per-node workers)")
		budget   = flag.Int64("budget", 0, "structure residency budget in modeled bytes; >0 manages the disease index's lifecycle")
		datalake = flag.Bool("datalake", false, "also run the full-scan data-lake arm the paper's footnote omits")
		showTr   = flag.Bool("trace", false, "print the per-stage execution trace of each ReDe run")
	)
	flag.Parse()
	ctx := context.Background()

	fmt.Fprintf(os.Stderr, "generating %d claims (seed %d)...\n", *nClaims, *seed)
	corpus := claims.Generate(claims.Config{Claims: *nClaims, Seed: *seed})

	lakeCluster := dfs.NewCluster(dfs.Config{Nodes: *nodes})
	whCluster := dfs.NewCluster(dfs.Config{Nodes: *nodes})
	t0 := time.Now()
	var mgr *indexer.Manager
	if *budget > 0 {
		// Lifecycle-managed lake arm: load raw claims only; the disease
		// index stays absent until the first query's Ensure demands it.
		if err := claims.LoadLakeRaw(ctx, lakeCluster, corpus, 0); err != nil {
			log.Fatal(err)
		}
		mgr = indexer.NewManager(ctx, lakeCluster, indexer.ManagerOptions{StructureBudget: *budget})
		if err := mgr.Register(claims.DiseaseIndexSpec()); err != nil {
			log.Fatal(err)
		}
	} else if err := claims.LoadLake(ctx, lakeCluster, corpus, 0); err != nil {
		log.Fatal(err)
	}
	if err := claims.LoadWarehouse(ctx, whCluster, corpus, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded both systems in %v\n\n", time.Since(t0).Round(time.Millisecond))

	var sharedOpts core.Options
	if *schedW > 0 {
		scheduler, err := sched.New(sched.Options{Workers: *schedW, ShedDepth: -1},
			sched.TenantConfig{Name: "bench", Weight: 1})
		if err != nil {
			log.Fatal(err)
		}
		defer scheduler.Close()
		sharedOpts.Tenant = "bench"
		sharedOpts.Scheduler = scheduler
		fmt.Fprintf(os.Stderr, "both arms share a %d-worker scheduler (tenant %q)\n\n", *schedW, "bench")
	}

	fmt.Printf("# Figure 9: record accesses, normalized to the warehouse system (DW = 1.00)\n")
	fmt.Printf("%-4s %-10s %-14s %16s %16s %12s %12s\n",
		"qry", "claims", "expense", "DW accesses", "ReDe accesses", "DW (norm)", "ReDe (norm)")
	for _, q := range claims.Queries {
		wantClaims, wantExpense := corpus.Oracle(q.Disease, q.MedicineClass)

		qOpts := sharedOpts
		qOpts.MaxBatch = *batch
		wh, err := claims.RunWarehouse(ctx, whCluster, q, qOpts)
		if err != nil {
			log.Fatalf("%s warehouse: %v", q.Name, err)
		}
		if mgr != nil {
			// Demand-build (or rebuild) the disease index before the ReDe arm.
			if err := mgr.Ensure(ctx, claims.IdxClaimsDise); err != nil {
				log.Fatalf("%s ensure %s: %v", q.Name, claims.IdxClaimsDise, err)
			}
		}
		rd, err := claims.RunReDe(ctx, lakeCluster, q, qOpts)
		if err != nil {
			log.Fatalf("%s ReDe: %v", q.Name, err)
		}
		if wh.Claims != wantClaims || rd.Claims != wantClaims ||
			wh.Expense != wantExpense || rd.Expense != wantExpense {
			log.Fatalf("%s: results disagree with oracle: DW (%d,%d) ReDe (%d,%d) oracle (%d,%d)",
				q.Name, wh.Claims, wh.Expense, rd.Claims, rd.Expense, wantClaims, wantExpense)
		}
		norm := float64(rd.RecordAccesses) / float64(wh.RecordAccesses)
		fmt.Printf("%-4s %-10d %-14d %16d %16d %12.2f %12.3f\n",
			q.Name, rd.Claims, rd.Expense, wh.RecordAccesses, rd.RecordAccesses, 1.0, norm)
		if *showTr {
			fmt.Printf("\n# %s ReDe execution trace\n%s\n", q.Name, rd.Trace.Table())
		}
		if *datalake {
			dl, err := claims.RunDataLake(ctx, lakeCluster, q, 16)
			if err != nil {
				log.Fatalf("%s data lake: %v", q.Name, err)
			}
			if dl.Claims != wantClaims || dl.Expense != wantExpense {
				log.Fatalf("%s: data-lake arm disagrees with oracle", q.Name)
			}
			fmt.Printf("%-4s %-10s %-14s %16s %16d %12s %12.3f  (full scan)\n",
				"", "", "", "", dl.RecordAccesses, "",
				float64(dl.RecordAccesses)/float64(wh.RecordAccesses))
		}
	}
	fmt.Printf("\nqueries:\n")
	for _, q := range claims.Queries {
		fmt.Printf("  %s: %s\n", q.Name, q.Description)
	}

	if mgr != nil {
		c := mgr.Counters()
		fmt.Fprintf(os.Stderr, "\nlifecycle: builds=%d deduped=%d rebuilds=%d evictions=%d resident=%d bytes (budget %d)\n",
			c.BuildsStarted, c.BuildsDeduped, c.Rebuilds, c.Evictions, mgr.ResidentBytes(), *budget)
	}
}
