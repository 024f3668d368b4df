package indexer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

func newManagerOver(t *testing.T, rows int, opts ManagerOptions) (*Manager, *dfs.Cluster) {
	t.Helper()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	loadBase(t, c, rows)
	return NewManager(context.Background(), c, opts), c
}

func mustRegister(t *testing.T, m *Manager, specs ...Spec) {
	t.Helper()
	for _, s := range specs {
		if err := m.Register(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManagerEnsureSingleflight pins the dedup contract exactly: N
// concurrent Ensure callers share one build — one launches it, the other
// N-1 join it. The build is gated open only after every joiner has been
// counted, so the assertion is deterministic, not a race we usually win.
func TestManagerEnsureSingleflight(t *testing.T) {
	const callers = 16
	gate := make(chan struct{})
	m, c := newManagerOver(t, 200, ManagerOptions{})
	mustRegister(t, m, Spec{
		Name: "once", Base: "orders", Kind: Global, PartKey: partKeyFn,
		Keys: func(rec lake.Record) ([]lake.Key, error) {
			<-gate // hold the build until all joiners are accounted for
			return custKeyFn(rec)
		},
	})

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.Ensure(context.Background(), "once")
		}(i)
	}
	for m.Counters().BuildsDeduped < callers-1 {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("Ensure %d: %v", i, err)
		}
	}
	cnt := m.Counters()
	if cnt.BuildsStarted != 1 || cnt.BuildsDeduped != callers-1 {
		t.Fatalf("builds started=%d deduped=%d, want 1 and %d", cnt.BuildsStarted, cnt.BuildsDeduped, callers-1)
	}
	if n, _ := c.Len("once"); n != 200 {
		t.Fatalf("index has %d entries, want 200 (double build?)", n)
	}
	if st, _ := m.State("once"); st != StateReady {
		t.Fatalf("state = %v, want ready", st)
	}
}

// TestManagerBudgetNeverExceeded is the acceptance invariant: with a budget
// below the total index size (but above every single index), resident bytes
// never exceed the budget after any Ensure, evictions actually happen, and
// every structure still answers queries correctly after transparent
// rebuild-on-demand.
func TestManagerBudgetNeverExceeded(t *testing.T) {
	ctx := context.Background()
	specs := []Spec{
		{Name: "i1", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn},
		{Name: "i2", Base: "orders", Kind: Local, PartKey: partKeyFn, Keys: dateKeyFn},
		{Name: "i3", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: dateKeyFn},
	}

	// Measure the real per-index sizes on a throwaway cluster so the budget
	// brackets them precisely.
	probe := dfs.NewCluster(dfs.Config{Nodes: 2})
	loadBase(t, probe, 300)
	var total, largest int64
	for _, s := range specs {
		if _, err := Build(ctx, probe, s); err != nil {
			t.Fatal(err)
		}
		sz, err := probe.FileSizeBytes(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if sz <= 0 {
			t.Fatalf("%s has modeled size %d, want > 0", s.Name, sz)
		}
		total += sz
		if sz > largest {
			largest = sz
		}
	}
	budget := total - 1
	if budget <= largest {
		t.Fatalf("budget %d does not bracket largest index %d", budget, largest)
	}

	m, c := newManagerOver(t, 300, ManagerOptions{StructureBudget: budget})
	mustRegister(t, m, specs...)
	check := func(step string) {
		t.Helper()
		if rb := m.ResidentBytes(); rb > budget {
			t.Fatalf("%s: resident bytes %d exceed budget %d", step, rb, budget)
		}
	}
	for _, s := range specs {
		if err := m.Ensure(ctx, s.Name); err != nil {
			t.Fatal(err)
		}
		check("ensure " + s.Name)
	}
	if ev := m.Counters().Evictions; ev == 0 {
		t.Fatal("no evictions despite budget below total index size")
	}
	// i1 is the coldest ready structure when i3 finishes, so pure LRU must
	// have picked it.
	if st, _ := m.State("i1"); st != StateEvicted {
		t.Fatalf("i1 state = %v, want evicted (LRU victim)", st)
	}

	// Every structure must still answer correctly on demand: Ensure
	// transparently rebuilds evicted ones, and the answer matches the
	// throwaway cluster's directly-built index.
	k := keycodec.Int64(3)
	for _, s := range specs {
		if err := m.Ensure(ctx, s.Name); err != nil {
			t.Fatal(err)
		}
		check("re-ensure " + s.Name)
		n, err := c.Len(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if wantN, _ := probe.Len(s.Name); n != wantN {
			t.Fatalf("%s has %d entries after rebuild, want %d", s.Name, n, wantN)
		}
		idx, err := c.BtreeFile(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := probe.BtreeFile(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.Lookup(ctx, idx.Partitioner().Partition(k, idx.NumPartitions()), k)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := want.Lookup(ctx, want.Partitioner().Partition(k, want.NumPartitions()), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(exp) {
			t.Fatalf("%s: probe returned %d entries after rebuild, want %d", s.Name, len(got), len(exp))
		}
	}
	if rb := m.Counters().Rebuilds; rb == 0 {
		t.Fatal("re-ensuring evicted structures recorded no rebuilds")
	}
}

// TestManagerRebuildCostBreaksTie: among the two coldest ready structures
// the one cheaper to rebuild is evicted first.
func TestManagerRebuildCostBreaksTie(t *testing.T) {
	ctx := context.Background()
	cost := func(s Spec) (float64, error) {
		if s.Name == "i2" {
			return 1, nil // i2 is cheap to rebuild
		}
		return 1000, nil
	}
	m, _ := newManagerOver(t, 300, ManagerOptions{StructureBudget: 1, RebuildCost: cost})
	mustRegister(t, m,
		Spec{Name: "i1", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn},
		Spec{Name: "i2", Base: "orders", Kind: Local, PartKey: partKeyFn, Keys: dateKeyFn},
		Spec{Name: "i3", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: dateKeyFn},
	)
	// Budget 1 cannot hold anything, but the just-finished structure is
	// never the victim, so after each Ensure only that structure remains
	// resident. When i3 finishes, the cold set is {i1, i2} and the cost
	// model must pick i2 over the colder i1.
	for _, name := range []string{"i1", "i2", "i3"} {
		if err := m.Ensure(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := m.State("i2"); st != StateEvicted {
		t.Fatalf("i2 state = %v, want evicted (cheapest of the cold set)", st)
	}
}

// TestManagerEvictRebuild walks the full state machine: absent → ready →
// evicted → (rebuild) ready, with the counters tracking each edge.
func TestManagerEvictRebuild(t *testing.T) {
	ctx := context.Background()
	m, c := newManagerOver(t, 100, ManagerOptions{})
	mustRegister(t, m, Spec{Name: "idx", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn})

	if st, _ := m.State("idx"); st != StateAbsent {
		t.Fatalf("state = %v, want absent before first demand", st)
	}
	if err := m.Evict("idx"); err == nil {
		t.Fatal("evicting an absent structure should fail")
	}
	if err := m.Ensure(ctx, "idx"); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict("idx"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.File("idx"); err == nil {
		t.Fatal("evicted structure still in the catalog")
	}
	if st, _ := m.State("idx"); st != StateEvicted {
		t.Fatalf("state = %v, want evicted", st)
	}
	if err := m.Ensure(ctx, "idx"); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.Len("idx"); n != 100 {
		t.Fatalf("rebuilt index has %d entries, want 100", n)
	}
	cnt := m.Counters()
	if cnt.BuildsStarted != 2 || cnt.Evictions != 1 || cnt.Rebuilds != 1 {
		t.Fatalf("counters = %+v, want 2 builds / 1 eviction / 1 rebuild", cnt)
	}
}

// TestManagerFailedBuildRetries: a failed build returns the structure to
// absent so the next Ensure retries instead of replaying the stale error.
func TestManagerFailedBuildRetries(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("interpreter broken")
	var failing bool
	m, c := newManagerOver(t, 50, ManagerOptions{})
	mustRegister(t, m, Spec{
		Name: "flaky", Base: "orders", Kind: Global, PartKey: partKeyFn,
		Keys: func(rec lake.Record) ([]lake.Key, error) {
			if failing {
				return nil, boom
			}
			return custKeyFn(rec)
		},
	})
	failing = true
	if err := m.Ensure(ctx, "flaky"); !errors.Is(err, boom) {
		t.Fatalf("Ensure error = %v, want %v", err, boom)
	}
	if st, _ := m.State("flaky"); st != StateAbsent {
		t.Fatalf("state after failed build = %v, want absent", st)
	}
	failing = false
	if err := m.Ensure(ctx, "flaky"); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if n, _ := c.Len("flaky"); n != 50 {
		t.Fatalf("index has %d entries, want 50", n)
	}
}

// TestManagerAcquireRoutes covers the planner-facing call: ready structures
// are usable immediately, building ones can be waited for within a budget,
// and absent ones kick off a background build while the caller is routed to
// the scan path (counted as a fallback).
func TestManagerAcquireRoutes(t *testing.T) {
	ctx := context.Background()
	gate := make(chan struct{})
	m, _ := newManagerOver(t, 100, ManagerOptions{})
	mustRegister(t, m, Spec{
		Name: "slow", Base: "orders", Kind: Global, PartKey: partKeyFn,
		Keys: func(rec lake.Record) ([]lake.Key, error) {
			<-gate
			return custKeyFn(rec)
		},
	})

	// Unknown names are not managed: report ready so unmanaged planners
	// keep their old behavior.
	if ready, _ := m.Acquire(ctx, "unmanaged", 0); !ready {
		t.Fatal("unknown structure should report ready")
	}
	// Absent with no wait budget: background build starts, caller scans.
	if ready, _ := m.Acquire(ctx, "slow", 0); ready {
		t.Fatal("absent structure reported ready")
	}
	if st, _ := m.State("slow"); st != StateBuilding {
		t.Fatalf("state = %v, want building after Acquire", st)
	}
	// Building with a too-small wait budget: still a scan fallback, and the
	// wait is attributed.
	ready, waited := m.Acquire(ctx, "slow", time.Millisecond)
	if ready {
		t.Fatal("gated build reported ready")
	}
	if waited <= 0 {
		t.Fatal("Acquire waited 0 on a building structure with budget")
	}
	if f := m.Counters().ScanFallbacks; f != 2 {
		t.Fatalf("scan fallbacks = %d, want 2", f)
	}
	// Release the build; a generous wait budget now rides it to readiness.
	close(gate)
	if ready, _ = m.Acquire(ctx, "slow", 10*time.Second); !ready {
		t.Fatal("Acquire did not become ready after the build was released")
	}
}

// TestBuildCancelledBeforeStart: a build launched under an already-dead
// context fails with that context's error and leaves no file behind.
func TestBuildCancelledBeforeStart(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	loadBase(t, c, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := BuildAsync(ctx, c, Spec{Name: "dead", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn})
	if err := b.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("build error = %v, want context.Canceled", err)
	}
	if _, err := c.File("dead"); err == nil {
		t.Fatal("cancelled build left a file behind")
	}
}

// TestBuildCancelledMidScan: cancellation during the scan surfaces
// context.Canceled and the half-built structure is dropped.
func TestBuildCancelledMidScan(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	loadBase(t, c, 500)
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	var mu sync.Mutex
	b := BuildAsync(ctx, c, Spec{
		Name: "mid", Base: "orders", Kind: Global, PartKey: partKeyFn,
		Keys: func(rec lake.Record) ([]lake.Key, error) {
			mu.Lock()
			seen++
			if seen == 10 {
				cancel()
			}
			mu.Unlock()
			return custKeyFn(rec)
		},
	})
	if err := b.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("build error = %v, want context.Canceled", err)
	}
	if _, err := c.File("mid"); err == nil {
		t.Fatal("cancelled build left a half-built file behind")
	}
	// The structure is not poisoned: the same spec builds fine afterwards.
	if _, err := Build(context.Background(), c, Spec{Name: "mid", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn}); err != nil {
		t.Fatalf("rebuild after cancellation: %v", err)
	}
	if n, _ := c.Len("mid"); n != 500 {
		t.Fatalf("rebuilt index has %d entries, want 500", n)
	}
}

// TestManagerEnsureCancelledWaiter: a waiter abandoning its wait does not
// kill the shared build; other waiters still get the structure.
func TestManagerEnsureCancelledWaiter(t *testing.T) {
	gate := make(chan struct{})
	m, c := newManagerOver(t, 100, ManagerOptions{})
	mustRegister(t, m, Spec{
		Name: "shared", Base: "orders", Kind: Global, PartKey: partKeyFn,
		Keys: func(rec lake.Record) ([]lake.Key, error) {
			<-gate
			return custKeyFn(rec)
		},
	})
	if _, err := m.Build("shared"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Ensure(ctx, "shared"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(gate)
	if err := m.Ensure(context.Background(), "shared"); err != nil {
		t.Fatalf("surviving build: %v", err)
	}
	if n, _ := c.Len("shared"); n != 100 {
		t.Fatalf("index has %d entries, want 100", n)
	}
}

// TestOnlineBuildExactlyOnce is the maintainer/build race regression test:
// records appended after maintenance registration but before the build
// scan's snapshot must be indexed exactly once — by the scan, with the
// buffered maintainer skipping them — and records appended after the
// snapshot exactly once by live maintenance. Without the buffered→live
// hand-over, the pre-snapshot rows would be indexed twice (or, with the
// opposite ordering hole, dropped entirely).
func TestOnlineBuildExactlyOnce(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	base := loadBase(t, c, 200)
	maint := NewMaintainer(ctx, c)
	spec := Spec{Name: "live_idx", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn}

	bw, err := maint.WatchBuilding(spec, base.NumPartitions())
	if err != nil {
		t.Fatal(err)
	}
	// These land after watch registration but before the build snapshot:
	// the scan will see them, so buffered maintenance must not.
	appendRows(t, c, base, 200, 40)
	b := StartBuild(ctx, c, spec, BuildOptions{Barrier: bw.GoLive})
	if err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// These land after the snapshot: only live maintenance covers them.
	appendRows(t, c, base, 240, 40)

	if n, _ := c.Len("live_idx"); n != 280 {
		t.Fatalf("index has %d entries, want 280 (each row exactly once)", n)
	}
	assertIndexMatchesBase(t, c, "live_idx", 280)
}

// TestManagerOnlineBuildUnderConcurrentAppends drives the same protocol
// through the Manager with appenders genuinely racing the build (run with
// -race). However the interleaving falls, every row must be indexed exactly
// once.
func TestManagerOnlineBuildUnderConcurrentAppends(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	base := loadBase(t, c, 300)
	m := NewManager(ctx, c, ManagerOptions{})
	mustRegister(t, m, Spec{Name: "race_idx", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn})

	const appenders, perAppender = 4, 50
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			appendRows(t, c, base, 300+a*perAppender, perAppender)
		}(a)
	}
	if err := m.Ensure(ctx, "race_idx"); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // maintenance is synchronous with the append: no drain needed

	want := 300 + appenders*perAppender
	if n, _ := c.Len("race_idx"); n != want {
		t.Fatalf("index has %d entries, want %d (dropped or doubled racing appends)", n, want)
	}
	assertIndexMatchesBase(t, c, "race_idx", want)
	if err := m.Maintainer().LastErr(); err != nil {
		t.Fatalf("maintenance error: %v", err)
	}
}

// appendRows appends rows [from, from+n) in the loadBase format.
func appendRows(t *testing.T, c *dfs.Cluster, base lake.File, from, n int) {
	t.Helper()
	ctx := context.Background()
	for i := from; i < from+n; i++ {
		key := keycodec.Int64(int64(i))
		data := fmt.Sprintf("%d|%d|%d", i, i%17, 20230000+i%30)
		if err := dfs.AppendRouted(ctx, base, key, lake.Record{Key: key, Data: []byte(data)}); err != nil {
			t.Error(err)
			return
		}
	}
}

// assertIndexMatchesBase checks that a custkey index over "orders" holds
// exactly one entry per base row: total entries and, per custkey, the same
// cardinality a base scan finds.
func assertIndexMatchesBase(t *testing.T, c *dfs.Cluster, name string, rows int) {
	t.Helper()
	ctx := context.Background()
	idx, err := c.BtreeFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for cust := 0; cust < 17; cust++ {
		want := 0
		for i := 0; i < rows; i++ {
			if i%17 == cust {
				want++
			}
		}
		k := keycodec.Int64(int64(cust))
		recs, err := idx.Lookup(ctx, idx.Partitioner().Partition(k, idx.NumPartitions()), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != want {
			t.Fatalf("%s: custkey %d has %d entries, want %d", name, cust, len(recs), want)
		}
	}
}
