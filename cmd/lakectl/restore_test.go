package main

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"lakeharbor/internal/claims"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
)

// TestRestoreCompactKeepsScripts compacts a data directory holding one
// compiled structure (the claims disease index) and one scripted structure
// with restore -out, then recovers from the compacted snapshot alone: the
// script must come back and both structures must be ready without a build.
func TestRestoreCompactKeepsScripts(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	if err := claims.LoadLakeRaw(ctx, c, claims.Generate(claims.Config{Claims: 200, Seed: 1}), 0); err != nil {
		t.Fatal(err)
	}
	base, err := c.CreateFile("vals", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := keycodec.Int64(int64(i))
		if err := dfs.AppendRouted(ctx, base, k, lake.Record{Key: k, Data: []byte(fmt.Sprintf("%d|%d", i, i%9))}); err != nil {
			t.Fatal(err)
		}
	}
	reg := script.NewRegistry(script.Limits{})
	if _, err := reg.Put("byval", `fn partkey(key, data) { return key }
fn keys(key, data) { emit(keyint(int(substr(data, find(data, "|") + 1, len(data))))) }`); err != nil {
		t.Fatal(err)
	}
	scripted, err := reg.Bind(script.SpecBinding{Structure: "vals_idx", Base: "vals", Kind: "global",
		Script: "byval", PartKeyFn: "partkey", KeysFn: "keys"})
	if err != nil {
		t.Fatal(err)
	}
	mgr := indexer.NewManager(ctx, c, indexer.ManagerOptions{})
	for _, spec := range []indexer.Spec{claims.DiseaseIndexSpec(), scripted} {
		if err := mgr.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.EnsureAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(ctx, filepath.Join(dir, "snap.lake"), c, mgr, reg); err != nil {
		t.Fatal(err)
	}

	compact := filepath.Join(t.TempDir(), "compact.lake")
	if err := cmdRestore([]string{"-data", dir, "-kind", "claims", "-out", compact}); err != nil {
		t.Fatal(err)
	}

	c2 := dfs.NewCluster(dfs.Config{Nodes: 2})
	mgr2 := indexer.NewManager(ctx, c2, indexer.ManagerOptions{})
	if err := mgr2.Register(claims.DiseaseIndexSpec()); err != nil {
		t.Fatal(err)
	}
	reg2 := script.NewRegistry(script.Limits{})
	rec, err := store.Recover(ctx, compact, "", c2, mgr2, reg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg2.Get("byval"); !ok || rec.Scripts != 1 {
		t.Fatalf("compacted snapshot carries %d scripts, want byval", rec.Scripts)
	}
	for _, name := range []string{claims.IdxClaimsDise, "vals_idx"} {
		if st, err := mgr2.State(name); err != nil || st != indexer.StateReady {
			t.Fatalf("%s recovered %v (%v), want ready", name, st, err)
		}
	}
	if n := mgr2.Counters().BuildsStarted; n != 0 {
		t.Fatalf("recovery from the compacted snapshot started %d builds", n)
	}
}
