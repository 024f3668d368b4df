package oracle

// The smpe-restart arm: the durability differential check. The scenario's
// structure is rebuilt under a live lifecycle manager, which maintains it;
// the cluster is checkpointed (store.Checkpoint) *while the job is
// executing* (snapshots take per-partition read locks, so a concurrent
// read-only workload must not perturb the image); a few post-checkpoint
// mutations — ingested records, into the indexed base too, and a catalog
// create — are logged to a real on-disk WAL; and then the process
// "crashes": a fresh cluster and a fresh lifecycle manager recover through
// store.Recover. The recovered world must be indistinguishable from the
// uninterrupted one: same job answer, same per-file record counts (the
// maintained index's included), same structure registry — and the
// recovered manager must adopt the structure without starting a single
// build.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"lakeharbor/internal/catalog"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
)

// scratchFile is the file the restart arm creates after the checkpoint, so
// the WAL replay has a catalog mutation to reconstruct.
const scratchFile = "restart_scratch"

// runRestartArm executes the restart differential check. It mutates the
// scenario (post-checkpoint appends), so it must run after every other arm.
func runRestartArm(ctx context.Context, sc *scenario) (*core.Result, []string) {
	const arm = "smpe-restart"
	opts := core.Options{Threads: sc.threads, MaxBatch: sc.maxBatch, KeepRecords: true}
	harness := func(format string, args ...any) (*core.Result, []string) {
		return nil, []string{arm + ": " + fmt.Sprintf(format, args...)}
	}
	dir, err := os.MkdirTemp("", "oracle-restart-")
	if err != nil {
		return harness("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)
	snapPath, walPath := filepath.Join(dir, "snap.lake"), filepath.Join(dir, "tail.wal")

	// The live manager rebuilds the scenario's index (entry for entry the
	// hand-built one) and maintains it from then on, so the checkpoint
	// carries a real registry entry and the base appends below reach it.
	mgr := indexer.NewManager(ctx, sc.cluster, indexer.ManagerOptions{})
	if sc.lcSpec != nil {
		sc.cluster.DropFile(idxFile)
		if err := mgr.Register(*sc.lcSpec); err != nil {
			return harness("register: %v", err)
		}
		if err := mgr.Ensure(ctx, idxFile); err != nil {
			return harness("live build: %v", err)
		}
	}

	// Uninterrupted run: the reference this arm must keep reproducing.
	res, fails := func() (*core.Result, []string) {
		r, err := core.ExecuteSMPE(ctx, sc.job, sc.cluster, sc.cluster, opts)
		return r, checkArm(arm, sc, r, err, 0)
	}()

	// Checkpoint mid-workload: the job re-executes concurrently with the
	// snapshot scan. Both must succeed — and the concurrent run must still
	// produce the oracle answer.
	type jobOut struct {
		res *core.Result
		err error
	}
	jobCh := make(chan jobOut, 1)
	go func() {
		r, err := core.ExecuteSMPE(ctx, sc.job, sc.cluster, sc.cluster, opts)
		jobCh <- jobOut{r, err}
	}()
	if err := store.Checkpoint(ctx, snapPath, sc.cluster, mgr, script.NewRegistry(script.Limits{})); err != nil {
		<-jobCh
		return res, append(fails, fmt.Sprintf("%s: checkpoint: %v", arm, err))
	}
	mid := <-jobCh
	fails = append(fails, checkArm(arm+"-during-snapshot", sc, mid.res, mid.err, 0)...)

	// Post-checkpoint mutations, logged write-ahead to a real WAL file: a
	// catalog create and records into both the scratch file and the base.
	// The base extras use val -1 — outside every generated probe range and
	// seed set — so the job's oracle answer stays valid on both sides.
	wal, err := store.OpenWAL(walPath)
	if err != nil {
		return res, append(fails, fmt.Sprintf("%s: open wal: %v", arm, err))
	}
	logged := func(file string, f lake.File, partKey lake.Key, rec lake.Record) error {
		if err := wal.Append(file, partKey, rec); err != nil {
			return err
		}
		return dfs.AppendRouted(ctx, f, partKey, rec)
	}
	catalog.Attach(sc.cluster, wal) // logs the create below, as a durable server does
	mutate := func() error {
		scratch, err := sc.cluster.CreateFile(scratchFile, dfs.Heap, 2, lake.HashPartitioner{})
		if err != nil {
			return err
		}
		base, err := sc.cluster.File(baseFile)
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			k := keycodec.Tuple(keycodec.String("wal-extra"), keycodec.Int64(int64(i)))
			rec := lake.Record{Key: k, Data: []byte(fmt.Sprintf("x%d|-1", i))}
			if err := logged(scratchFile, scratch, k, rec); err != nil {
				return err
			}
			if err := logged(baseFile, base, k, rec); err != nil {
				return err
			}
		}
		return wal.Close()
	}
	if err := mutate(); err != nil {
		wal.Close()
		return res, append(fails, fmt.Sprintf("%s: post-checkpoint mutations: %v", arm, err))
	}

	// Crash. A fresh cluster and a fresh manager recover from snapshot +
	// WAL — builds must not start.
	recovered := dfs.NewCluster(dfs.Config{Nodes: sc.cluster.NumNodes(), Cost: sc.cluster.Cost()})
	mgr2 := indexer.NewManager(ctx, recovered, indexer.ManagerOptions{})
	if sc.lcSpec != nil {
		if err := mgr2.Register(*sc.lcSpec); err != nil {
			return res, append(fails, fmt.Sprintf("%s: recovered register: %v", arm, err))
		}
	}
	rec, err := store.Recover(ctx, snapPath, walPath, recovered, mgr2, script.NewRegistry(script.Limits{}))
	if err != nil {
		return res, append(fails, fmt.Sprintf("%s: recover: %v", arm, err))
	}
	if v, want := recovered.CatalogVersion(), sc.cluster.CatalogVersion(); v != want {
		fails = append(fails, fmt.Sprintf("%s: recovered catalog version %d, want %d", arm, v, want))
	}
	if sc.lcSpec != nil {
		if st := rec.Structures; st.Recovered != 1 || st.Evicted != 0 || st.Skipped != 0 {
			fails = append(fails, fmt.Sprintf("%s: recover stats %+v, want 1 ready", arm, st))
		}
		if c := mgr2.Counters(); c.BuildsStarted != 0 {
			fails = append(fails, fmt.Sprintf("%s: recovery started %d builds; recovery must not rebuild", arm, c.BuildsStarted))
		}
	}
	for _, m := range []*indexer.Manager{mgr, mgr2} {
		if n := m.Maintainer().Errors(); n != 0 {
			fails = append(fails, fmt.Sprintf("%s: %d maintenance errors: %v", arm, n, m.Maintainer().LastErr()))
		}
	}

	// The recovered world and the uninterrupted one must agree: job answer
	// (both re-runs checked against the oracle), per-file record counts, and
	// the structure registry.
	resLive, errLive := core.ExecuteSMPE(ctx, sc.job, sc.cluster, sc.cluster, opts)
	fails = append(fails, checkArm(arm+"-live-after", sc, resLive, errLive, 0)...)
	resRec, errRec := core.ExecuteSMPE(ctx, sc.job, recovered, recovered, opts)
	fails = append(fails, checkArm(arm+"-recovered", sc, resRec, errRec, 0)...)
	if errLive == nil && errRec == nil {
		for i := range resLive.StageEmits {
			if resLive.StageEmits[i] != resRec.StageEmits[i] {
				fails = append(fails, fmt.Sprintf(
					"%s: emit divergence: stage %d emits %d live vs %d recovered",
					arm, i, resLive.StageEmits[i], resRec.StageEmits[i]))
			}
		}
	}
	fails = append(fails, diffClusters(arm, sc.cluster, recovered)...)
	if a, b := mgr.PersistEntries(), mgr2.PersistEntries(); len(a) != len(b) {
		fails = append(fails, fmt.Sprintf("%s: registry sizes %d live vs %d recovered", arm, len(a), len(b)))
	} else {
		for i := range a {
			if a[i].Name != b[i].Name || a[i].State != b[i].State || a[i].Builds != b[i].Builds || a[i].SizeBytes != b[i].SizeBytes {
				fails = append(fails, fmt.Sprintf("%s: registry entry diverged: live %+v vs recovered %+v", arm, a[i], b[i]))
			}
		}
	}
	if len(fails) > 0 && resRec != nil {
		res = resRec
	}
	return res, fails
}

// diffClusters compares catalog shape and per-file record counts.
func diffClusters(arm string, live, rec *dfs.Cluster) []string {
	var fails []string
	liveNames, recNames := live.FileNames(), rec.FileNames()
	if len(liveNames) != len(recNames) {
		return []string{fmt.Sprintf("%s: catalogs differ: live %v vs recovered %v", arm, liveNames, recNames)}
	}
	for _, name := range liveNames {
		nl, err := live.Len(name)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: live len(%s): %v", arm, name, err))
			continue
		}
		nr, err := rec.Len(name)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: recovered missing %q: %v", arm, name, err))
			continue
		}
		if nl != nr {
			fails = append(fails, fmt.Sprintf("%s: %s has %d records live vs %d recovered", arm, name, nl, nr))
		}
	}
	return fails
}
