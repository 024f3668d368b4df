// Command lakectl manages on-disk lake snapshots (internal/store): build a
// structure-aware snapshot from a generated dataset, inspect one, verify
// that it restores cleanly, or restore a lakeserve data directory —
// snapshot plus WAL tail plus structure registry — and optionally compact
// it into a fresh checkpoint. `lakectl top` is the live ops view: it polls
// one or more /debug/metrics endpoints (lakeserve, lakenode sidecars) and
// renders tenants, nodes, and RPC latency quantiles in place. `lakectl
// script` manages scripted access methods on a live lakeserve: upload
// (validated and compiled at POST), list, fetch source, delete.
//
// Usage:
//
//	go run ./cmd/lakectl snapshot -kind tpch   -out lake.snap [-sf 0.1] [-seed 1] [-nodes 4]
//	go run ./cmd/lakectl snapshot -kind claims -out lake.snap [-claims 10000]
//	go run ./cmd/lakectl inspect  -in lake.snap
//	go run ./cmd/lakectl verify   -in lake.snap
//	go run ./cmd/lakectl restore  -data DIR -kind tpch [-out compact.snap]
//	go run ./cmd/lakectl restore  -in lake.snap [-wal wal.log] -kind claims
//	go run ./cmd/lakectl top      [-once] [-interval 2s] localhost:8080 [127.0.0.1:7201 ...]
//	go run ./cmd/lakectl script put -server localhost:8080 -name validx -file idx.lh
//	go run ./cmd/lakectl script ls  -server localhost:8080
//	go run ./cmd/lakectl script get -server localhost:8080 -name validx
//	go run ./cmd/lakectl script rm  -server localhost:8080 -name validx
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lakeharbor/internal/claims"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
	"lakeharbor/internal/tpch"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "snapshot":
		cmdSnapshot(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "restore":
		if err := cmdRestore(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
	case "top":
		cmdTop(os.Args[2:])
	case "script":
		cmdScript(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lakectl {snapshot|inspect|verify|restore|top|script} [flags]")
	os.Exit(2)
}

// structureSpecs is the -kind → structure specs switch: what snapshot
// builds, and what restore registers so Recover can adopt the checkpointed
// entries.
func structureSpecs(kind string) ([]indexer.Spec, error) {
	switch kind {
	case "tpch":
		return tpch.StructureSpecs(), nil
	case "claims":
		return []indexer.Spec{claims.DiseaseIndexSpec()}, nil
	case "none":
		return nil, nil
	}
	return nil, fmt.Errorf("unknown -kind %q", kind)
}

func cmdSnapshot(args []string) {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	var (
		kind    = fs.String("kind", "tpch", "dataset kind: tpch | claims")
		out     = fs.String("out", "lake.snap", "snapshot output path")
		sf      = fs.Float64("sf", 0.1, "TPC-H micro scale factor")
		nClaims = fs.Int("claims", 10000, "number of claims")
		seed    = fs.Int64("seed", 1, "generator seed")
		nodes   = fs.Int("nodes", 4, "simulated cluster nodes")
	)
	fs.Parse(args)
	ctx := context.Background()
	cluster := dfs.NewCluster(dfs.Config{Nodes: *nodes})
	var err error
	switch *kind {
	case "tpch":
		err = tpch.Load(ctx, cluster, tpch.Generate(tpch.Config{SF: *sf, Seed: *seed}), 0)
	case "claims":
		err = claims.LoadLakeRaw(ctx, cluster, claims.Generate(claims.Config{Claims: *nClaims, Seed: *seed}), 0)
	default:
		err = fmt.Errorf("unknown -kind %q", *kind)
	}
	if err != nil {
		log.Fatal(err)
	}
	specs, _ := structureSpecs(*kind)
	mgr := indexer.NewManager(ctx, cluster, indexer.ManagerOptions{})
	for _, spec := range specs {
		if err := mgr.Register(spec); err != nil {
			log.Fatal(err)
		}
	}
	if err := mgr.EnsureAll(ctx); err != nil {
		log.Fatal(err)
	}
	if err := store.Checkpoint(ctx, *out, cluster, mgr, script.NewRegistry(script.Limits{})); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes, %d files, %d structures, catalog v%d)\n",
		*out, st.Size(), len(cluster.FileNames()), len(specs), cluster.CatalogVersion())
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "lake.snap", "snapshot path")
	fs.Parse(args)
	ctx := context.Background()
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	meta, err := store.ReadSnapshotFromPath(ctx, *in, cluster)
	if err != nil {
		log.Fatal(err)
	}
	names := cluster.FileNames()
	sort.Strings(names)
	fmt.Printf("catalog version %d\n", meta.CatalogVersion)
	fmt.Printf("%-28s %-12s %-6s %10s %14s\n", "file", "partitioner", "parts", "records", "bytes")
	for _, name := range names {
		f, err := cluster.File(name)
		if err != nil {
			log.Fatal(err)
		}
		n, _ := cluster.Len(name)
		bytes := 0
		for p := 0; p < f.NumPartitions(); p++ {
			f.Scan(ctx, p, func(r lake.Record) error {
				bytes += len(r.Data)
				return nil
			})
		}
		fmt.Printf("%-28s %-12s %-6d %10d %14d\n",
			name, f.Partitioner().Name(), f.NumPartitions(), n, bytes)
	}
	if len(meta.Structures) > 0 {
		fmt.Printf("\n%-28s %-28s %-8s %-8s %12s %8s\n",
			"structure", "base", "kind", "state", "bytes", "builds")
		for _, pe := range meta.Structures {
			fmt.Printf("%-28s %-28s %-8v %-8v %12d %8d\n",
				pe.Name, pe.Base, pe.Kind, pe.State, pe.SizeBytes, pe.Builds)
		}
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "lake.snap", "snapshot path")
	fs.Parse(args)
	ctx := context.Background()
	cluster := dfs.NewCluster(dfs.Config{Nodes: 2})
	meta, err := store.ReadSnapshotFromPath(ctx, *in, cluster)
	if err != nil {
		log.Fatalf("snapshot is NOT valid: %v", err)
	}
	total := 0
	for _, name := range cluster.FileNames() {
		n, err := cluster.Len(name)
		if err != nil {
			log.Fatal(err)
		}
		total += n
	}
	// Every structure entry must reference a base file that exists; ready
	// entries must also have their index file present in the catalog.
	for _, pe := range meta.Structures {
		if _, err := cluster.File(pe.Base); err != nil {
			log.Fatalf("snapshot is NOT valid: structure %s: base %q missing", pe.Name, pe.Base)
		}
		if pe.State == indexer.StateReady {
			if _, err := cluster.File(pe.Name); err != nil {
				log.Fatalf("snapshot is NOT valid: ready structure %q has no index file", pe.Name)
			}
		}
	}
	fmt.Printf("snapshot OK: %d files, %d records, %d structures, catalog v%d, checksum verified\n",
		len(cluster.FileNames()), total, len(meta.Structures), meta.CatalogVersion)
}

// cmdRestore recovers a lake from its durable state — a snapshot plus an
// optional WAL tail — through store.Recover, exactly the way lakeserve
// boots. With -out it writes the recovered state (scripts and bindings
// included) back as a fresh checkpoint, compacting the WAL into the
// snapshot offline.
func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ContinueOnError)
	var (
		data  = fs.String("data", "", "lakeserve data directory (reads DIR/snap.lake and DIR/wal.log)")
		in    = fs.String("in", "", "snapshot path (alternative to -data)")
		walIn = fs.String("wal", "", "WAL path to replay after the snapshot")
		kind  = fs.String("kind", "none", "dataset kind whose structure specs to register: tpch | claims | none")
		out   = fs.String("out", "", "write the recovered state as a fresh compacted snapshot")
		nodes = fs.Int("nodes", 4, "simulated cluster nodes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	snapPath, walPath := *in, *walIn
	if *data != "" {
		if snapPath == "" {
			snapPath = filepath.Join(*data, "snap.lake")
		}
		// An explicitly named WAL must exist; the -data default may not.
		if p := filepath.Join(*data, "wal.log"); walPath == "" {
			if _, err := os.Stat(p); err == nil {
				walPath = p
			}
		}
	}
	if snapPath == "" {
		return errors.New("restore: need -data DIR or -in SNAPSHOT")
	}
	specs, err := structureSpecs(*kind)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	ctx := context.Background()
	cluster := dfs.NewCluster(dfs.Config{Nodes: *nodes})
	mgr := indexer.NewManager(ctx, cluster, indexer.ManagerOptions{})
	for _, spec := range specs {
		if err := mgr.Register(spec); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	scripts := script.NewRegistry(script.Limits{})
	rec, err := store.Recover(ctx, snapPath, walPath, cluster, mgr, scripts)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	total := 0
	for _, name := range cluster.FileNames() {
		n, err := cluster.Len(name)
		if err != nil {
			return err
		}
		total += n
	}
	st := rec.Structures
	fmt.Printf("restored %s: %d files, %d records, %d WAL records replayed, %d scripts, "+
		"%d structures ready / %d evicted / %d skipped (catalog v%d) in %v\n",
		snapPath, len(cluster.FileNames()), total, rec.WALRecords, rec.Scripts,
		st.Recovered, st.Evicted, st.Skipped, rec.CatalogVersion, rec.Duration.Round(time.Millisecond))
	if st.RebuildCostSaved > 0 {
		fmt.Printf("rebuild cost saved: %.0f\n", st.RebuildCostSaved)
	}
	if *out == "" {
		return nil
	}
	if err := store.Checkpoint(ctx, *out, cluster, mgr, scripts); err != nil {
		return fmt.Errorf("restore: checkpoint: %w", err)
	}
	fst, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("compacted into %s (%d bytes)\n", *out, fst.Size())
	return nil
}
