package oracle

// The lifecycle arm: the generated job executed against a structure under
// full lifecycle management instead of the hand-built index the other arms
// use. The arm drops the generated index, registers an equivalent
// access-method Spec with a lifecycle Manager, fires the build
// asynchronously, and submits the job while the build is (typically still)
// in flight — concurrent Ensure callers join the one build via
// singleflight. It then force-evicts the structure and runs the job again,
// exercising rebuild-on-demand. Both runs must reproduce the oracle answer
// exactly, and the manager's counters must account for precisely two
// builds, one eviction, and one rebuild.

import (
	"context"
	"fmt"
	"sync"

	"lakeharbor/internal/core"
	"lakeharbor/internal/indexer"
)

// runLifecycleArm executes the lifecycle differential check. For forms
// without a managed structure (point, join) it degenerates to a plain
// re-execution, which still must agree with the oracle.
func runLifecycleArm(ctx context.Context, sc *scenario) (*core.Result, []string) {
	const arm = "smpe-lifecycle"
	opts := core.Options{Threads: sc.threads, MaxBatch: sc.maxBatch, KeepRecords: true}
	run := func(tag string) (*core.Result, []string) {
		res, err := core.ExecuteSMPE(ctx, sc.job, sc.cluster, sc.cluster, opts)
		return res, checkArm(tag, sc, res, err, 0)
	}
	if sc.lcSpec == nil {
		return run(arm)
	}

	// Replace the hand-built index with a lifecycle-managed rebuild of the
	// same entries (same keys, payloads, partitioning), so the job's seeds
	// stay valid and the answer must not change.
	sc.cluster.DropFile(idxFile)
	mgr := indexer.NewManager(ctx, sc.cluster, indexer.ManagerOptions{})
	if err := mgr.Register(*sc.lcSpec); err != nil {
		return nil, []string{fmt.Sprintf("%s: register: %v", arm, err)}
	}
	if _, err := mgr.Build(idxFile); err != nil {
		return nil, []string{fmt.Sprintf("%s: build: %v", arm, err)}
	}
	// The job fires while the build is in flight; a few concurrent Ensure
	// callers must all join that one build (singleflight), never start more.
	if errs := ensureConcurrently(ctx, mgr, 3); len(errs) > 0 {
		return nil, errs
	}
	res, fails := run(arm)

	// Forced evict, then rebuild-on-demand: Ensure must bring the structure
	// back and the job must reproduce the same multiset.
	if err := mgr.Evict(idxFile); err != nil {
		return res, append(fails, fmt.Sprintf("%s: evict: %v", arm, err))
	}
	if st, err := mgr.State(idxFile); err != nil || st != indexer.StateEvicted {
		fails = append(fails, fmt.Sprintf("%s: state after evict = %v, %v; want evicted", arm, st, err))
	}
	if errs := ensureConcurrently(ctx, mgr, 3); len(errs) > 0 {
		return res, append(fails, errs...)
	}
	res2, fails2 := run(arm + "-post-evict")
	fails = append(fails, fails2...)
	if res == nil || len(fails2) > 0 {
		res = res2
	}

	// Lifecycle accounting must be exact: the initial build plus the one
	// rebuild, one eviction — singleflight means the extra Ensure callers
	// never started builds of their own.
	c := mgr.Counters()
	if c.BuildsStarted != 2 || c.Evictions != 1 || c.Rebuilds != 1 {
		fails = append(fails, fmt.Sprintf(
			"%s: counters builds=%d evictions=%d rebuilds=%d; want 2/1/1 (deduped=%d)",
			arm, c.BuildsStarted, c.Evictions, c.Rebuilds, c.BuildsDeduped))
	}
	// This manager goes out of scope with the arm: evicting stops it
	// maintaining the index, which a later arm's manager rebuilds and owns.
	if err := mgr.Evict(idxFile); err != nil {
		fails = append(fails, fmt.Sprintf("%s: final evict: %v", arm, err))
	}
	return res, fails
}

// ensureConcurrently runs n concurrent Ensure calls and collects failures.
func ensureConcurrently(ctx context.Context, mgr *indexer.Manager, n int) []string {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []string
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := mgr.Ensure(ctx, idxFile); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Sprintf("smpe-lifecycle: ensure: %v", err))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errs
}
