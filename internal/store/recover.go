package store

import (
	"context"
	"fmt"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/script"
)

// Checkpoint writes the lake's whole durable state to path, atomically (see
// CheckpointToPath): every file, the catalog version, mgr's structure
// registry, and every script and structure binding registered in scripts.
// It is the one place a SnapshotMeta is assembled.
func Checkpoint(ctx context.Context, path string, cluster *dfs.Cluster, mgr *indexer.Manager, scripts *script.Registry) error {
	meta := &SnapshotMeta{CatalogVersion: cluster.CatalogVersion(), Structures: mgr.PersistEntries()}
	meta.Scripts, meta.ScriptSpecs = scripts.PersistScripts(), scripts.Bindings()
	return CheckpointToPath(ctx, cluster, meta, path)
}

// Recovery is what one Recover did. httpapi renders it as the
// lakeharbor_recovery_* gauges.
type Recovery struct {
	// CatalogVersion is the catalog version the snapshot carried.
	CatalogVersion uint64
	// SnapshotFiles is the number of files the snapshot restored.
	SnapshotFiles int
	// Scripts is the number of scripts re-Put from the snapshot.
	Scripts int
	// WALRecords is the number of records the WAL replay re-applied.
	WALRecords int
	// Structures is the registry adoption's outcome, with structures a
	// replayed catalog op demoted counted as evicted.
	Structures indexer.RecoverStats
	// Duration is the whole recovery's wall time.
	Duration time.Duration
}

// Recover rebuilds a lake from its durable state in the one order that
// keeps every ready structure equal to a scan of its base:
//
//  1. restore the snapshot at snapPath into cluster;
//  2. re-Put its scripts into scripts and re-Bind their bindings,
//     registering the bound specs with mgr;
//  3. adopt the checkpointed structure registry;
//  4. resume maintenance of every structure adopted as ready
//     (Manager.Recover does 3 and 4 together);
//  5. replay the WAL at walPath ("" for none), whose records therefore
//     reach base files and their indexes alike.
//
// mgr must already hold the boot's compiled specs; scripts receives the
// snapshot's scripts. A replayed catalog op that drops or
// creates a structure's file means the checkpoint no longer describes that
// structure: it is evicted (its watch removed) and, once replay ends, any
// file the WAL left under the name of a structure that is not ready is
// dropped. No structure comes back ready over partial contents.
func Recover(ctx context.Context, snapPath, walPath string, cluster *dfs.Cluster, mgr *indexer.Manager, scripts *script.Registry) (*Recovery, error) {
	start := time.Now()
	meta, err := ReadSnapshotFromPath(ctx, snapPath, cluster)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{CatalogVersion: meta.CatalogVersion, SnapshotFiles: len(cluster.FileNames()), Scripts: len(meta.Scripts)}
	for _, pe := range meta.Scripts {
		if _, err := scripts.Put(pe.Name, pe.Source); err != nil {
			return nil, fmt.Errorf("store: recover script %q: %w", pe.Name, err)
		}
	}
	for _, b := range meta.ScriptSpecs {
		spec, err := scripts.Bind(b)
		if err == nil {
			err = mgr.Register(spec)
		}
		if err != nil {
			return nil, fmt.Errorf("store: recover binding %q: %w", b.Structure, err)
		}
	}
	rec.Structures = mgr.Recover(meta.Structures)
	if walPath != "" {
		rec.WALRecords, err = replayWAL(ctx, walPath, cluster, func(name string) {
			if mgr.Evict(name) == nil {
				rec.Structures.Recovered--
				rec.Structures.Evicted++
			}
		})
		if err != nil {
			return nil, fmt.Errorf("store: recover: %w", err)
		}
		for _, name := range mgr.Names() {
			if st, err := mgr.State(name); err == nil && st != indexer.StateReady {
				cluster.DropFile(name)
			}
		}
	}
	rec.Duration = time.Since(start)
	return rec, nil
}
