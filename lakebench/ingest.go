package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/store"
	"lakeharbor/internal/tpch"
)

// ingest is ingest_q5: writes beside reads, then durability.
//
// The newest 40 % of orders (by o_orderdate) and their lineitems are held
// back; the rest is loaded and its structures built with
// ManagerOptions{Maintain: true} and checkpointed. Then, concurrently, one
// writer ingests the held-back records the way lakeserve does — WAL.Append
// and WAL.Sync per record, then dfs.AppendRouted, which pays index
// maintenance — and one reader loops the Q5' job stream; a "job" of this
// workload is a reader job. FLUSH POLICY: one fsync per record, stated and
// fixed; group commit would be a different system. The writer stops at the
// repetition's deadline or when the held-back set runs out, and the reader
// with it. Afterwards the lake is checkpointed, the WAL handle is abandoned
// un-closed (a crash), and fresh clusters recover from the base snapshot
// plus the WAL.
//
// The program has no cache of its own, so there is no fits/doesn't-fit
// pair; sizes are stated instead (README).
type ingest struct {
	sz       sizes
	full     *tpch.Dataset
	base     *tpch.Dataset
	pending  []ingestRec // held-back orders, each followed by its lineitems
	plan     []q5query   // want = full-dataset oracle
	baseWant []int64     // base-dataset oracle, aligned with plan
	windows  int

	dir     string
	cluster *dfs.Cluster
	mgr     *indexer.Manager
	wal     *store.WAL
	queries []q5query
	cur     cursor
	acc     *engineAcc
	setups  int
}

// ingestRec is one record of the ingest stream.
type ingestRec struct {
	file    string
	partKey lake.Key
	rec     lake.Record
	order   int // index into full.Orders of the order it belongs to
	line    int // index into full.Lineitems, or -1 for the order row
}

// heldBackFrom is the first day of the held-back (newest) 40 % of the
// o_orderdate domain.
const heldBackFrom = tpch.DateDays * 6 / 10

// recoveries is how many checkpoints and crash recoveries follow each
// repetition's ingest.
const recoveries = 2

func (w *ingest) freshPerRep() bool { return true }

func (w *ingest) describe() string {
	return fmt.Sprintf("TPC-H micro SF %g on %d nodes, %d records held back, one fsync per record, reader: %s",
		w.sz.IngestSF, w.sz.Nodes, len(w.pending), describeStream(w.plan))
}
func (w *ingest) variants() []variant { return nil }

func (w *ingest) prepare(seed int64, sz sizes) error {
	w.sz = sz
	w.full = tpch.Generate(tpch.Config{SF: sz.IngestSF, Seed: seed})
	plan, sel, err := q5Plan(w.full, seed, sz.Sel)
	if err != nil {
		return err
	}
	w.plan, w.windows = plan, int(1/sel+1e-9)

	base := *w.full
	base.Orders, base.Lineitems = nil, nil
	line := 0
	for oi, o := range w.full.Orders {
		held := o.OrderDate >= heldBackFrom
		if held {
			k := tpch.OrderKey(o.OrderKey)
			w.pending = append(w.pending, ingestRec{tpch.FileOrders, k, lake.Record{Key: k, Data: []byte(o.Raw())}, oi, -1})
		} else {
			base.Orders = append(base.Orders, o)
		}
		// The generator emits each order's lineitems contiguously, in order.
		for ; line < len(w.full.Lineitems) && w.full.Lineitems[line].OrderKey == o.OrderKey; line++ {
			l := w.full.Lineitems[line]
			if held {
				w.pending = append(w.pending, ingestRec{tpch.FileLineitem, keycodec.Int64(l.OrderKey),
					lake.Record{Key: tpch.LineitemKey(l.OrderKey, l.LineNumber), Data: []byte(l.Raw())}, oi, line})
			} else {
				base.Lineitems = append(base.Lineitems, l)
			}
		}
	}
	if line != len(w.full.Lineitems) {
		return fmt.Errorf("ingest: lineitems are not grouped by order (%d of %d placed)", line, len(w.full.Lineitems))
	}
	w.base = &base
	w.baseWant = w.wants(w.base)
	return nil
}

// wants returns the oracle answer of every job of the plan over ds.
func (w *ingest) wants(ds *tpch.Dataset) []int64 {
	counts := q5Counts(ds, w.windows)
	out := make([]int64, len(w.plan))
	for i, q := range w.plan {
		out[i] = counts[q.r][q.win]
	}
	return out
}

func (w *ingest) snapPath() string { return filepath.Join(w.dir, "base.lake") }
func (w *ingest) walPath() string  { return filepath.Join(w.dir, "wal.log") }

func (w *ingest) setup(ctx context.Context) error {
	w.setups++
	w.dir = filepath.Join(w.sz.Scratch, fmt.Sprintf("ingest-%d-%d", os.Getpid(), w.setups))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.cluster = dfs.NewCluster(dfs.Config{Nodes: w.sz.Nodes})
	if err := tpch.Load(ctx, w.cluster, w.base, 0); err != nil {
		return err
	}
	var err error
	if w.mgr, err = tpch.BuildManaged(ctx, w.cluster, indexer.ManagerOptions{Maintain: true}); err != nil {
		return err
	}
	if err := w.checkpoint(ctx, w.snapPath()); err != nil {
		return err
	}
	if w.wal, err = store.OpenWAL(w.walPath()); err != nil {
		return err
	}
	w.queries = make([]q5query, len(w.plan))
	for i, q := range w.plan {
		if q.job, err = tpch.Q5Job(ctx, w.cluster, q.region, q.lo, q.hi); err != nil {
			return err
		}
		q.traced = wrapJob(q.job)
		w.queries[i] = q
	}
	return nil
}

func (w *ingest) checkpoint(ctx context.Context, path string) error {
	meta := &store.SnapshotMeta{CatalogVersion: w.cluster.CatalogVersion(), Structures: w.mgr.PersistEntries()}
	return store.CheckpointToPath(ctx, w.cluster, meta, path)
}

func (w *ingest) teardown() {
	if w.wal != nil {
		_ = w.wal.Close() // the crash already happened; this only frees the descriptor
	}
	_ = os.RemoveAll(w.dir) // scratch; a leftover is harmless and gitignored
	w.cluster, w.mgr, w.wal, w.queries = nil, nil, nil, nil
}

// ingestOne acknowledges one record the way lakeserve's ingest hook does:
// WAL append, fsync, then apply (which pays index maintenance). It returns
// the instants between the steps.
func (w *ingest) ingestOne(ctx context.Context, r ingestRec) (at [4]time.Time, err error) {
	at[0] = time.Now()
	if err = w.wal.Append(r.file, r.partKey, r.rec); err != nil {
		return at, err
	}
	at[1] = time.Now()
	if err = w.wal.Sync(); err != nil {
		return at, err
	}
	at[2] = time.Now()
	f, err := w.cluster.File(r.file)
	if err != nil {
		return at, err
	}
	err = dfs.AppendRouted(ctx, f, r.partKey, r.rec)
	at[3] = time.Now()
	return at, err
}

func (w *ingest) rep(ctx context.Context, d time.Duration, _ variant, tr *tracer) repStats {
	if tr != nil {
		w.acc = &engineAcc{}
	}
	maint0 := w.mgr.Maintainer().Maintained()
	before := w.cluster.TotalMetrics()
	var (
		acks       [][4]time.Time // one per acknowledged record
		writeS     float64
		writeErr   error
		writerDone atomic.Bool
	)
	s := measure(func() int64 { return recordAccesses(w.cluster) }, func(s *repStats) {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the writer
			defer wg.Done()
			defer writerDone.Store(true)
			t0 := time.Now()
			for _, r := range w.pending {
				if !time.Now().Before(deadline) {
					break
				}
				at, err := w.ingestOne(ctx, r)
				if err != nil {
					writeErr = err
					break
				}
				acks = append(acks, at)
			}
			writeS = time.Since(t0).Seconds()
		}()
		go func() { // the reader
			defer wg.Done()
			for !writerDone.Load() {
				i := w.cur.next(len(w.queries))
				t0 := time.Now()
				s.attempted++
				if err := w.readJob(ctx, i, tr); err != nil {
					s.fail(err.Error())
					continue
				}
				s.latMs = append(s.latMs, float64(time.Since(t0))/1e6)
			}
		}()
		wg.Wait()
	})
	acked := len(acks)
	s.attempted++ // the ingest itself
	if writeErr != nil {
		s.fail("ingest: " + writeErr.Error())
	}
	if errs := w.mgr.Maintainer().Errors(); errs > 0 {
		s.fail(fmt.Sprintf("index maintenance failed %d times: %v", errs, w.mgr.Maintainer().LastErr()))
	}
	x := map[string]float64{}
	s.extra = x
	dfsInto(x, w.cluster.TotalMetrics().Sub(before), float64(s.jobs()))
	if acked == 0 {
		s.fail("ingest: no record acknowledged")
		return s
	}
	step := func(i, j int) []float64 {
		out := make([]float64, acked)
		for k, at := range acks {
			out[k] = float64(at[j].Sub(at[i])) / 1e3
		}
		return out
	}
	x["ingest.krecs_per_s"] = float64(acked) / 1e3 / writeS
	x["ingest.ack_us_p90"], _ = tailPercentile(sorted(step(0, 3)), 0.9)
	x["store.wal_append_us_p50"] = median(step(0, 1))
	x["store.wal_sync_us_p50"] = median(step(1, 2))
	x["indexer.append_us_p50"] = median(step(2, 3))
	x["indexer.maintain_entries_per_rec"] = float64(w.mgr.Maintainer().Maintained()-maint0) / float64(acked)
	if tr != nil {
		// The writer's spans, from the instants it took anyway; the first
		// few hundred records only — they are all alike.
		jt := tr.newJob()
		for _, at := range acks[:min(acked, 500)] {
			ack := jt.add(spanIngest, 0, at[0], at[3])
			jt.add(spanAppend, ack, at[0], at[1])
			jt.add(spanSync, ack, at[1], at[2])
			jt.add(spanApply, ack, at[2], at[3])
		}
		tr.attach(jt)
	}
	w.durability(ctx, &s, acked)
	return s
}

// readJob runs job i of the stream against the growing lake. Its answer
// must lie between the base and the full dataset's.
func (w *ingest) readJob(ctx context.Context, i int, tr *tracer) error {
	q := &w.queries[i]
	job := q.job
	if tr != nil {
		var done func()
		ctx, done = tr.beginJob(ctx)
		defer done()
		job = q.traced
	}
	res, err := core.ExecuteSMPE(ctx, job, w.cluster, w.cluster, core.Options{})
	if err != nil {
		return fmt.Errorf("%s [%d,%d): %w", q.region, q.lo, q.hi, err)
	}
	if res.Count < w.baseWant[i] || res.Count > q.want {
		return fmt.Errorf("%s [%d,%d): %d rows, outside oracle range [%d, %d]", q.region, q.lo, q.hi, res.Count, w.baseWant[i], q.want)
	}
	if tr != nil {
		w.acc.add(res.Trace)
	}
	return nil
}

// durability checkpoints the lake, then crashes and recovers it: fresh
// clusters restore the base snapshot, adopt its structures without a
// rebuild, and replay the abandoned WAL. Every acknowledged record must be
// readable and Q5' must equal the oracle over base + acknowledged records,
// on the live lake and on every recovered one.
func (w *ingest) durability(ctx context.Context, s *repStats, acked int) {
	x := s.extra
	op := func(what string, err error) bool {
		s.attempted++
		if err != nil {
			s.fail(what + ": " + err.Error())
		}
		return err == nil
	}
	want := w.wants(w.datasetAfter(acked))
	op("live lake after ingest", w.verify(ctx, w.cluster, acked, want))

	fullSnap := filepath.Join(w.dir, "full.lake")
	var ckptMs []float64
	for i := 0; i < recoveries; i++ {
		t0 := time.Now()
		if !op("checkpoint", w.checkpoint(ctx, fullSnap)) {
			return
		}
		ckptMs = append(ckptMs, float64(time.Since(t0))/1e6)
	}
	x["ingest.checkpoint_ms"] = median(ckptMs)
	size := func(path string) float64 {
		st, err := os.Stat(path)
		if err != nil {
			return 0
		}
		return float64(st.Size())
	}
	fullBytes, baseBytes, walBytes := size(fullSnap), size(w.snapPath()), size(w.walPath())
	x["store.snapshot_mb_per_s"] = fullBytes / 1e6 / (median(ckptMs) / 1e3)

	var ackedBytes float64
	for _, r := range w.pending[:acked] {
		ackedBytes += float64(len(r.rec.Key) + len(r.rec.Data))
	}
	x["store.wal_bytes_per_user_byte"] = walBytes / ackedBytes
	x["ingest.stored_bytes_per_user_byte"] = (fullBytes + walBytes) / w.userBytes(ctx)

	var recoverMs, restoreS, replayS []float64
	for i := 0; i < recoveries; i++ {
		r, err := w.recoverOnce(ctx)
		if !op("recover", err) {
			return
		}
		recoverMs = append(recoverMs, float64(r.total)/1e6)
		restoreS = append(restoreS, r.restore.Seconds())
		replayS = append(replayS, r.replay.Seconds())
		x["indexer.recover_adopted"] = float64(r.adopted)
		switch {
		case r.applied != acked:
			err = fmt.Errorf("replayed %d records, acknowledged %d", r.applied, acked)
		case r.adopted != len(tpch.StructureSpecs()) || r.rebuilds != 0:
			err = fmt.Errorf("adopted %d structures, %d rebuilds started", r.adopted, r.rebuilds)
		default:
			err = w.verify(ctx, r.cluster, acked, want)
		}
		op("recovered lake", err)
	}
	x["ingest.recover_ms"] = median(recoverMs)
	x["store.restore_mb_per_s"] = baseBytes / 1e6 / median(restoreS)
	x["store.wal_replay_krecs_per_s"] = float64(acked) / 1e3 / median(replayS)
}

// recovery is one crash recovery's outcome.
type recovery struct {
	cluster                *dfs.Cluster
	adopted, rebuilds      int
	applied                int
	restore, replay, total time.Duration
}

// recoverOnce recovers a fresh cluster from the base snapshot and the WAL.
func (w *ingest) recoverOnce(ctx context.Context) (recovery, error) {
	r := recovery{cluster: dfs.NewCluster(dfs.Config{Nodes: w.sz.Nodes})}
	mgr := indexer.NewManager(ctx, r.cluster, indexer.ManagerOptions{Maintain: true})
	t0 := time.Now()
	meta, err := store.ReadSnapshotFromPath(ctx, w.snapPath(), r.cluster)
	if err != nil {
		return r, fmt.Errorf("restore: %w", err)
	}
	r.restore = time.Since(t0)
	specs := tpch.StructureSpecs()
	for _, spec := range specs {
		if err := mgr.Register(spec); err != nil {
			return r, err
		}
	}
	r.adopted = mgr.Recover(meta.Structures).Recovered
	// Recover adopts the structures but does not resume maintaining them;
	// without the Watch the replayed records would miss every index.
	for _, spec := range specs {
		if err := mgr.Maintainer().Watch(spec); err != nil {
			return r, err
		}
	}
	t1 := time.Now()
	if r.applied, err = store.ReplayWAL(ctx, w.walPath(), r.cluster); err != nil {
		return r, fmt.Errorf("replay: %w", err)
	}
	r.replay, r.total = time.Since(t1), time.Since(t0)
	r.rebuilds = int(mgr.Counters().BuildsStarted)
	return r, nil
}

// datasetAfter is the dataset the lake holds once the first n held-back
// records are in: the oracle's input for a partially ingested lake.
func (w *ingest) datasetAfter(n int) *tpch.Dataset {
	ds := *w.base
	ds.Orders = append([]tpch.Order(nil), w.base.Orders...)
	ds.Lineitems = append([]tpch.Lineitem(nil), w.base.Lineitems...)
	for _, r := range w.pending[:n] {
		if r.line < 0 {
			ds.Orders = append(ds.Orders, w.full.Orders[r.order])
		} else {
			ds.Lineitems = append(ds.Lineitems, w.full.Lineitems[r.line])
		}
	}
	return &ds
}

// userBytes is the raw key+payload size of the lake's base files.
func (w *ingest) userBytes(ctx context.Context) float64 {
	structures := map[string]bool{}
	for _, spec := range tpch.StructureSpecs() {
		structures[spec.Name] = true
	}
	total := 0.0
	for _, name := range w.cluster.FileNames() {
		f, err := w.cluster.File(name)
		if err != nil || structures[name] {
			continue
		}
		for p := 0; p < f.NumPartitions(); p++ {
			// Scan of an in-process partition only fails on a cancelled context.
			_ = f.Scan(ctx, p, func(r lake.Record) error {
				total += float64(len(r.Key) + len(r.Data))
				return nil
			})
		}
	}
	return total
}

// verify reads back every acknowledged record from c and runs a sample of
// the job stream against the oracle over base + acknowledged records.
func (w *ingest) verify(ctx context.Context, c *dfs.Cluster, acked int, want []int64) error {
	for _, r := range w.pending[:acked] {
		f, err := c.File(r.file)
		if err != nil {
			return err
		}
		recs, err := f.Lookup(ctx, f.Partitioner().Partition(r.partKey, f.NumPartitions()), r.rec.Key)
		if err != nil {
			return err
		}
		if len(recs) != 1 || string(recs[0].Data) != string(r.rec.Data) {
			return fmt.Errorf("acknowledged record %s/%q reads back as %d records", r.file, r.rec.Key, len(recs))
		}
	}
	for i := 0; i < len(w.plan); i += len(w.plan)/10 + 1 {
		q := w.plan[i]
		job, err := tpch.Q5Job(ctx, c, q.region, q.lo, q.hi)
		if err != nil {
			return err
		}
		res, err := core.ExecuteSMPE(ctx, job, c, c, core.Options{})
		if err != nil {
			return err
		}
		if res.Count != want[i] {
			return fmt.Errorf("%s [%d,%d): %d rows, oracle over base+acked %d", q.region, q.lo, q.hi, res.Count, want[i])
		}
	}
	return nil
}

func (w *ingest) layers(_ context.Context, r *runData) map[string]float64 {
	return tracedLayers(r, w.acc)
}
