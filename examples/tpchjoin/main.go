// Command tpchjoin runs the paper's Fig. 3/4 example: a parallel index
// nested-loop join between Part and Lineitem, opened by a range over the
// local secondary index on p_retailprice and crossing partitions through
// the global index on l_partkey. It executes the same job with and without
// SMPE to show the fine-grained parallelism at work.
//
// Run it with:
//
//	go run ./examples/tpchjoin
package main

import (
	"context"
	"fmt"
	"log"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/tpch"
)

func main() {
	ctx := context.Background()

	// A 4-node cluster with the HDD-like cost model, so the timing
	// difference between the execution strategies is visible.
	cluster := dfs.NewCluster(dfs.Config{Nodes: 4, Cost: sim.HDDProfile()})

	fmt.Println("generating TPC-H micro dataset (SF 0.1)...")
	ds := tpch.Generate(tpch.Config{SF: 0.1, Seed: 1})
	if err := tpch.Load(ctx, cluster, ds, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d parts, %d lineitems\n", len(ds.Parts), len(ds.Lineitems))

	fmt.Println("building structures (local price index, global l_partkey index)...")
	if err := tpch.BuildStructures(ctx, cluster); err != nil {
		log.Fatal(err)
	}

	// The join of Fig. 3/4:
	//   SELECT * FROM Part p JOIN Lineitem l ON p.p_partkey = l.l_partkey
	//   WHERE p.p_retailprice BETWEEN 950 AND 1050
	lo, hi := 950.0, 1050.0
	job, err := tpch.PartLineitemJoin(lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(job.Describe())

	smpe, err := core.ExecuteSMPE(ctx, job, cluster, cluster, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nReDe w/ SMPE : %6d joined rows in %v\n", smpe.Count, smpe.Elapsed.Round(0))

	plain, err := core.ExecutePlain(ctx, job, cluster, cluster, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ReDe w/o SMPE: %6d joined rows in %v\n", plain.Count, plain.Elapsed.Round(0))

	if want := ds.OraclePartLineitem(lo, hi); smpe.Count != want || plain.Count != want {
		log.Fatalf("result mismatch: SMPE=%d plain=%d oracle=%d", smpe.Count, plain.Count, want)
	}
	fmt.Println("both executions match the oracle cardinality")

	// For contrast, the scan-based baseline computes the same join by
	// scanning both tables and hash-joining them.
	eng := baseline.New(cluster, 0)
	parts, err := eng.Scan(ctx, tpch.FilePart, func(rec lake.Record) (bool, error) {
		price, err := tpch.InterpPart.Field(rec, "p_retailprice")
		if err != nil {
			return false, err
		}
		k, err := tpch.EncodeFloat(nil, price)
		if err != nil {
			return false, err
		}
		return string(k) >= keycodec.Float64(lo) && string(k) <= keycodec.Float64(hi), nil
	})
	if err != nil {
		log.Fatal(err)
	}
	lineitems, err := eng.Scan(ctx, tpch.FileLineitem, nil)
	if err != nil {
		log.Fatal(err)
	}
	joined, err := baseline.HashJoin(
		baseline.TuplesOf(lineitems),
		baseline.TupleKey(0, func(rec lake.Record) (string, error) {
			v, err := tpch.InterpLineitem.Field(rec, "l_partkey")
			if err != nil {
				return "", err
			}
			k, err := tpch.EncodeInt(nil, v)
			return string(k), err
		}),
		parts,
		func(rec lake.Record) (string, error) {
			v, err := tpch.InterpPart.Field(rec, "p_partkey")
			if err != nil {
				return "", err
			}
			k, err := tpch.EncodeInt(nil, v)
			return string(k), err
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline scan+hash join: %d joined rows (scanned every record)\n", len(joined))
}
