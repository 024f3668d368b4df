package oracle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"lakeharbor/internal/catalog"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
)

// scratchFile is the file created after the checkpoint at
// structures=recovered, so the WAL replay has a catalog mutation to
// reconstruct.
const scratchFile = "restart_scratch"

// structures puts the point's structure in place of the hand-built index.
// For forms without an index (point, join) managed is the hand-built world,
// and recovered still checkpoints, logs and recovers the base data.
func (w *world) structures(ctx context.Context) error {
	switch {
	case w.p.is(structures, "managed"):
		return w.manage(ctx)
	case w.p.is(structures, "recovered"):
		return w.recover(ctx)
	}
	return nil
}

// manager is a fresh lifecycle Manager over c with the point's Spec
// registered, the hand-built index it replaces dropped. The Spec's build
// reproduces that index entry for entry; at functions=script its
// partition-key and index-key extractors are the mirror script's. ok is
// false for forms without an index.
func (w *world) manager(ctx context.Context, c *dfs.Cluster) (mgr *indexer.Manager, ok bool, err error) {
	mgr = indexer.NewManager(ctx, c, indexer.ManagerOptions{})
	if w.lcSpec == nil {
		return mgr, false, nil
	}
	spec := *w.lcSpec
	if w.p.is(functions, "script") {
		prog, err := w.program()
		if err != nil {
			return nil, false, err
		}
		if spec.PartKey, err = prog.PartKeyFunc("partkey", script.Limits{}); err != nil {
			return nil, false, err
		}
		if spec.Keys, err = prog.KeysFunc("keys", script.Limits{}); err != nil {
			return nil, false, err
		}
	}
	if mutate.spec != nil {
		mutate.spec(&spec)
	}
	c.DropFile(idxFile)
	return mgr, true, mgr.Register(spec)
}

// manage rebuilds the index through a lifecycle Manager: three concurrent
// Ensure callers join the in-flight build (singleflight), a forced evict is
// followed by rebuild on demand, and the counters must show exactly two
// builds, one eviction and one rebuild. The point's job then runs on the
// rebuilt structure.
func (w *world) manage(ctx context.Context) error {
	mgr, ok, err := w.manager(ctx, w.cluster)
	if !ok || err != nil {
		return err
	}
	if _, err := mgr.Build(idxFile); err != nil {
		return err
	}
	if err := ensureConcurrently(ctx, mgr, 3); err != nil {
		return err
	}
	if err := mgr.Evict(idxFile); err != nil {
		return err
	}
	if st, err := mgr.State(idxFile); err != nil || st != indexer.StateEvicted {
		w.fail("managed: state after evict = %v, %v; want evicted", st, err)
	}
	if err := ensureConcurrently(ctx, mgr, 3); err != nil {
		return err
	}
	if c := mgr.Counters(); c.BuildsStarted != 2 || c.Evictions != 1 || c.Rebuilds != 1 {
		w.fail("managed: counters builds=%d evictions=%d rebuilds=%d; want 2/1/1 (deduped=%d)",
			c.BuildsStarted, c.Evictions, c.Rebuilds, c.BuildsDeduped)
	}
	return nil
}

// ensureConcurrently runs n concurrent Ensure calls and joins their errors.
func ensureConcurrently(ctx context.Context, mgr *indexer.Manager, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = mgr.Ensure(ctx, idxFile)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// recover replaces the world with a crash-recovered one. A live manager
// builds and maintains the structure; the cluster is checkpointed while the
// job runs (snapshots take per-partition read locks, so a concurrent
// read-only job must neither perturb the image nor be perturbed by it);
// the post-checkpoint mutations go through a real on-disk WAL; then a fresh
// cluster and a fresh manager recover through store.Recover. The recovered
// world must match the live one — catalog version, per-file record counts
// (the maintained index's included), structure registry — without starting
// a build, and the point's job runs on it.
func (w *world) recover(ctx context.Context) error {
	dir, err := os.MkdirTemp("", "oracle-recover-")
	if err != nil {
		return err
	}
	w.closers = append(w.closers, func() { os.RemoveAll(dir) })
	snapPath, walPath := filepath.Join(dir, "snap.lake"), filepath.Join(dir, "tail.wal")

	live := w.cluster
	mgr, indexed, err := w.manager(ctx, live)
	if err != nil {
		return err
	}
	if indexed {
		if err := mgr.Ensure(ctx, idxFile); err != nil {
			return fmt.Errorf("live build: %w", err)
		}
	}
	during := make(chan []string, 1)
	go func() {
		opts := core.Options{Threads: w.threads, MaxBatch: w.maxBatch, KeepRecords: true}
		res, err := core.ExecuteSMPE(ctx, w.job, live, live, opts)
		during <- checkRun("job during checkpoint", w.scenario, res, err, 0)
	}()
	err = store.Checkpoint(ctx, snapPath, live, mgr, script.NewRegistry(script.Limits{}))
	w.out.fails = append(w.out.fails, <-during...)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := walTail(ctx, live, walPath); err != nil {
		return fmt.Errorf("post-checkpoint mutations: %w", err)
	}

	// Crash: a fresh cluster and manager recover from snapshot + WAL.
	recovered := dfs.NewCluster(dfs.Config{Nodes: live.NumNodes(), Cost: live.Cost()})
	mgr2, _, err := w.manager(ctx, recovered)
	if err != nil {
		return err
	}
	if mutate.noTail {
		walPath = ""
	}
	rec, err := store.Recover(ctx, snapPath, walPath, recovered, mgr2, script.NewRegistry(script.Limits{}))
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if v, want := recovered.CatalogVersion(), live.CatalogVersion(); v != want {
		w.fail("recovered: catalog version %d, want %d", v, want)
	}
	if st := rec.Structures; indexed && (st.Recovered != 1 || st.Evicted != 0 || st.Skipped != 0) {
		w.fail("recovered: recover stats %+v, want 1 ready", st)
	}
	if c := mgr2.Counters(); c.BuildsStarted != 0 {
		w.fail("recovered: recovery started %d builds; recovery must not rebuild", c.BuildsStarted)
	}
	for _, m := range []*indexer.Manager{mgr, mgr2} {
		if n := m.Maintainer().Errors(); n != 0 {
			w.fail("recovered: %d maintenance errors: %v", n, m.Maintainer().LastErr())
		}
	}
	if a, b := live.FileNames(), recovered.FileNames(); len(a) != len(b) {
		w.fail("recovered: catalogs differ: live %v vs recovered %v", a, b)
	}
	for _, name := range live.FileNames() {
		nl, errL := live.Len(name)
		nr, errR := recovered.Len(name)
		if errL != nil || errR != nil || nl != nr {
			w.fail("recovered: %s has %d records live vs %d recovered (%v, %v)", name, nl, nr, errL, errR)
		}
	}
	if a, b := mgr.PersistEntries(), mgr2.PersistEntries(); !slices.Equal(a, b) {
		w.fail("recovered: registry diverged: live %+v vs recovered %+v", a, b)
	}
	w.cluster = recovered
	return nil
}

// walTail applies the post-checkpoint mutations, logged write-ahead to a
// WAL at path: a catalog create, and eight records into both the new
// scratch file and the base. The base extras carry val -1 — outside every
// generated probe range and seed set — so the oracle answer holds on both
// sides of the crash.
func walTail(ctx context.Context, c *dfs.Cluster, path string) (err error) {
	wal, err := store.OpenWAL(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
	}()
	catalog.Attach(c, wal) // logs the create below, as a durable server does
	scratch, err := c.CreateFile(scratchFile, dfs.Heap, 2, lake.HashPartitioner{})
	if err != nil {
		return err
	}
	base, err := c.File(baseFile)
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		k := keycodec.Tuple(keycodec.String("wal-extra"), keycodec.Int64(int64(i)))
		rec := lake.Record{Key: k, Data: []byte(fmt.Sprintf("x%d|-1", i))}
		for _, f := range []lake.File{scratch, base} {
			if err := wal.Append(f.Name(), k, rec); err != nil {
				return err
			}
			if err := dfs.AppendRouted(ctx, f, k, rec); err != nil {
				return err
			}
		}
	}
	return nil
}
