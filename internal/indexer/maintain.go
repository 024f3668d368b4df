package indexer

import (
	"context"
	"sync"
	"sync/atomic"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// Maintainer keeps built structures in sync with new base data — the other
// half of §III-D. The paper's trade-off discussion (§V-B) is precisely that
// "more structures could cause more performance and capacity overheads for
// loading new data"; the Maintainer makes that overhead real and
// measurable: every base append fans out one index append per entry the
// registered access methods emit.
//
// Maintenance is synchronous with the append (writer-pays), which keeps
// indexes consistent for the read path without a reconciliation step.
//
// A structure built online (appends racing the build scan) needs a
// hand-over protocol so that every racing record lands in the index exactly
// once: WatchBuilding registers the structure with every base partition in
// buffered mode — its appends are owned by the build scan, which will see
// them, so the maintainer ignores them — and the build's Barrier hook flips
// each partition to live at the scan's snapshot point. dfs guarantees the
// pair (insert, notify) is atomic under the partition's write lock and the
// barrier runs under the scan's read lock, so a notification is strictly
// before the barrier (record visible to the scan → maintainer must skip it)
// or strictly after it (record invisible to the scan → maintainer applies
// it). There is no in-between.
type Maintainer struct {
	cluster *dfs.Cluster
	ctx     context.Context

	mu    sync.RWMutex
	specs map[string][]*watch // base file → watches of built indexes

	maintained atomic.Int64
	errs       atomic.Int64
	lastErr    atomic.Value // error
}

// watch is one maintained structure. live tracks, per base partition,
// whether the maintainer owns that partition's new appends; a nil live
// slice means the structure was registered fully built (plain Watch) and
// every partition is live.
type watch struct {
	spec Spec
	live []atomic.Bool
}

func (w *watch) isLive(partition int) bool {
	if w.live == nil {
		return true
	}
	if partition < 0 || partition >= len(w.live) {
		return false
	}
	return w.live[partition].Load()
}

// BuildWatch is the hand-over handle of a structure registered with
// WatchBuilding: the build's Barrier hook calls GoLive as each base
// partition's scan pins its snapshot.
type BuildWatch struct {
	m *Maintainer
	w *watch
}

// GoLive flips one base partition to live maintenance. It is called under
// the build scan's read lock on that partition, so the flip is ordered
// against every append's (insert, notify) pair.
func (bw *BuildWatch) GoLive(basePartition int) {
	if basePartition >= 0 && basePartition < len(bw.w.live) {
		bw.w.live[basePartition].Store(true)
	}
}

// NewMaintainer attaches a maintainer to the cluster's append stream. Use
// Watch to start maintaining a built structure.
func NewMaintainer(ctx context.Context, cluster *dfs.Cluster) *Maintainer {
	m := &Maintainer{cluster: cluster, ctx: ctx, specs: make(map[string][]*watch)}
	cluster.AddAppendListener(m.onAppend)
	return m
}

// Watch starts maintaining the structure described by spec: every record
// appended to spec.Base from now on is also indexed. The structure should
// already be built (Build or Registry.Ensure); Watch does not backfill.
// Watching a structure name that is already watched is a no-op, so a
// caller that re-watches what Manager.Recover adopted indexes each append
// once.
func (m *Maintainer) Watch(spec Spec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.specs[spec.Base] {
		if w.spec.Name == spec.Name {
			return nil
		}
	}
	m.specs[spec.Base] = append(m.specs[spec.Base], &watch{spec: spec})
	return nil
}

// WatchBuilding registers a structure whose build is about to start: every
// base partition begins buffered (appends belong to the build scan) and
// flips to live via the returned handle's GoLive — wire it to the build's
// BuildOptions.Barrier. baseParts is the base file's partition count.
func (m *Maintainer) WatchBuilding(spec Spec, baseParts int) (*BuildWatch, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	w := &watch{spec: spec, live: make([]atomic.Bool, baseParts)}
	m.mu.Lock()
	m.specs[spec.Base] = append(m.specs[spec.Base], w)
	m.mu.Unlock()
	return &BuildWatch{m: m, w: w}, nil
}

// Unwatch stops maintaining the named structure (all registrations, any
// base). The lifecycle manager calls it whenever a structure stops being
// ready: on eviction and when a build fails.
func (m *Maintainer) Unwatch(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for base, watches := range m.specs {
		var kept []*watch // fresh: onAppend may still be ranging over watches
		for _, w := range watches {
			if w.spec.Name != name {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			delete(m.specs, base)
		} else {
			m.specs[base] = kept
		}
	}
}

// Maintained returns how many index entries have been appended by
// maintenance — the paper's loading overhead, directly.
func (m *Maintainer) Maintained() int64 { return m.maintained.Load() }

// Errors returns how many maintenance operations failed (e.g. records the
// access method cannot interpret); the last error is available via LastErr.
func (m *Maintainer) Errors() int64 { return m.errs.Load() }

// LastErr returns the most recent maintenance error, or nil.
func (m *Maintainer) LastErr() error {
	if v := m.lastErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// onAppend indexes one appended base record into every watched structure.
// Index appends do not re-trigger maintenance because indexes are not
// registered as bases (indexing an index would need an explicit Watch).
// Buffered partitions (mid-build, pre-barrier) are skipped: the build scan
// owns those records.
func (m *Maintainer) onAppend(file string, partition int, rec lake.Record) {
	m.mu.RLock()
	watches := m.specs[file]
	m.mu.RUnlock()
	if len(watches) == 0 {
		return
	}
	for _, w := range watches {
		if !w.isLive(partition) {
			continue
		}
		if err := m.apply(w.spec, rec); err != nil {
			m.errs.Add(1)
			m.lastErr.Store(err)
		}
	}
}

func (m *Maintainer) apply(spec Spec, rec lake.Record) error {
	idx, err := m.cluster.File(spec.Name)
	if err != nil {
		return err
	}
	basePartKey, err := spec.PartKey(rec)
	if err != nil {
		return err
	}
	keys, err := spec.Keys(rec)
	if err != nil {
		return err
	}
	entry := lake.EncodeIndexEntry(basePartKey, rec.Key)
	for _, k := range keys {
		routeKey := k
		if spec.Kind == Local {
			routeKey = basePartKey
		}
		target := idx.Partitioner().Partition(routeKey, idx.NumPartitions())
		if err := idx.Append(m.ctx, target, lake.Record{Key: k, Data: entry}); err != nil {
			return err
		}
		m.maintained.Add(1)
	}
	return nil
}
