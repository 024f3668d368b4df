package indexer

import (
	"context"
	"testing"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// Tests for checkpoint/recovery of the lifecycle registry: PersistEntries
// must capture exactly the adoptable states, and Recover must re-install
// them without starting builds — demoting entries whose bytes did not
// survive and re-enforcing the structure budget.

func TestPersistEntriesCaptureReadyAndEvicted(t *testing.T) {
	ctx := context.Background()
	m, c := newManagerOver(t, 200, ManagerOptions{})
	mustRegister(t, m,
		Spec{Name: "p1", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn},
		Spec{Name: "p2", Base: "orders", Kind: Local, PartKey: partKeyFn, Keys: dateKeyFn},
		Spec{Name: "p3", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: dateKeyFn},
	)
	for _, name := range []string{"p1", "p2"} {
		if err := m.Ensure(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Evict("p2"); err != nil {
		t.Fatal(err)
	}
	// p3 stays absent: absent structures have nothing worth persisting.

	entries := m.PersistEntries()
	if len(entries) != 2 {
		t.Fatalf("persisted %d entries, want 2: %+v", len(entries), entries)
	}
	if entries[0].Name != "p1" || entries[1].Name != "p2" {
		t.Fatalf("entries not sorted by name: %+v", entries)
	}
	if entries[0].State != StateReady || entries[0].SizeBytes <= 0 || entries[0].Builds != 1 {
		t.Fatalf("ready entry wrong: %+v", entries[0])
	}
	if entries[1].State != StateEvicted || entries[1].SizeBytes != 0 {
		t.Fatalf("evicted entry wrong: %+v", entries[1])
	}
	sz, err := c.FileSizeBytes("p1")
	if err != nil || entries[0].SizeBytes != sz {
		t.Fatalf("persisted size %d, file size %d (err=%v)", entries[0].SizeBytes, sz, err)
	}
}

func TestRecoverAdoptsWithoutRebuilding(t *testing.T) {
	ctx := context.Background()

	// Live side: build, checkpoint the registry, keep the index contents.
	live, lc := newManagerOver(t, 300, ManagerOptions{})
	spec := Spec{Name: "idx", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn}
	mustRegister(t, live, spec)
	if err := live.Ensure(ctx, "idx"); err != nil {
		t.Fatal(err)
	}
	entries := live.PersistEntries()

	// "Recovered" side: same cluster stands in for restored state (the
	// index file survived), fresh manager.
	m := NewManager(ctx, lc, ManagerOptions{})
	mustRegister(t, m, spec)
	st := m.Recover(entries)
	if st.Recovered != 1 || st.Evicted != 0 || st.Skipped != 0 {
		t.Fatalf("stats %+v, want exactly 1 recovered", st)
	}
	if s, _ := m.State("idx"); s != StateReady {
		t.Fatalf("state %v, want ready", s)
	}
	if cnt := m.Counters(); cnt.BuildsStarted != 0 {
		t.Fatalf("recovery started %d builds", cnt.BuildsStarted)
	}
	// The recovered entry keeps its build count for continuity.
	if got := m.PersistEntries(); len(got) != 1 || got[0].Builds != entries[0].Builds {
		t.Fatalf("recovered registry %+v, want builds carried over from %+v", got, entries)
	}
}

// TestRecoverThenWatchIndexesOnce pins ready ⇒ maintained across recovery,
// in the order a caller that predates it uses (Recover, then its own
// Watch): every later base append reaches the adopted index exactly once.
func TestRecoverThenWatchIndexesOnce(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	base := loadBase(t, c, 100)
	spec := Spec{Name: "idx", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn}
	// The index as a restored snapshot leaves it: present, unmanaged.
	if _, err := Build(ctx, c, spec); err != nil {
		t.Fatal(err)
	}
	size, err := c.FileSizeBytes("idx")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ctx, c, ManagerOptions{})
	mustRegister(t, m, spec)
	if st := m.Recover([]PersistEntry{{Name: "idx", Base: "orders", Kind: Global,
		State: StateReady, SizeBytes: size, Builds: 1}}); st.Recovered != 1 {
		t.Fatalf("stats %+v, want 1 recovered", st)
	}
	if err := m.Maintainer().Watch(spec); err != nil {
		t.Fatal(err)
	}
	const n = 40
	appendRows(t, c, base, 100, n)
	if got := m.Maintainer().Maintained(); got != n {
		t.Fatalf("Maintained = %d after %d appends, want %d", got, n, n)
	}
	assertIndexMatchesBase(t, c, "idx", 100+n)
	if total, _ := c.Len("idx"); total != 100+n {
		t.Fatalf("index has %d entries, want %d", total, 100+n)
	}
}

func TestRecoverDemotesReadyEntryWithoutBytes(t *testing.T) {
	ctx := context.Background()
	m, c := newManagerOver(t, 100, ManagerOptions{})
	spec := Spec{Name: "ghost", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn}
	mustRegister(t, m, spec)

	// A registry claiming "ghost" is ready with bytes, while the cluster has
	// no such file (the snapshot predates it, say): recovery must demote to
	// evicted, not adopt a phantom.
	st := m.Recover([]PersistEntry{{Name: "ghost", Base: "orders", Kind: Global,
		State: StateReady, SizeBytes: 9999, Builds: 2}})
	if st.Recovered != 0 || st.Evicted != 1 {
		t.Fatalf("stats %+v, want 0 recovered / 1 evicted", st)
	}
	if s, _ := m.State("ghost"); s != StateEvicted {
		t.Fatalf("state %v, want evicted", s)
	}

	// Same demotion when the file exists but is empty (a WAL-replayed
	// CreateFile whose contents post-date the snapshot).
	m2 := NewManager(ctx, c, ManagerOptions{})
	mustRegister(t, m2, Spec{Name: "husk", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn})
	if _, err := c.CreateFile("husk", dfs.Btree, 2, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	st = m2.Recover([]PersistEntry{{Name: "husk", Base: "orders", Kind: Global,
		State: StateReady, SizeBytes: 1234, Builds: 1}})
	if st.Recovered != 0 || st.Evicted != 1 {
		t.Fatalf("husk stats %+v, want 0 recovered / 1 evicted", st)
	}
	if _, err := c.File("husk"); err == nil {
		t.Fatal("empty husk file must be dropped so the rebuild starts clean")
	}
	// The demoted structure must rebuild on demand and come back correct.
	if err := m2.Ensure(ctx, "husk"); err != nil {
		t.Fatal(err)
	}
	if s, _ := m2.State("husk"); s != StateReady {
		t.Fatalf("state after demand rebuild %v, want ready", s)
	}
}

func TestRecoverSkipsUnregisteredSpecs(t *testing.T) {
	m, _ := newManagerOver(t, 50, ManagerOptions{})
	st := m.Recover([]PersistEntry{{Name: "nobody", Base: "orders", State: StateReady}})
	if st.Skipped != 1 || st.Recovered != 0 || st.Evicted != 0 {
		t.Fatalf("stats %+v, want 1 skipped", st)
	}
}

func TestRecoverEnforcesBudget(t *testing.T) {
	ctx := context.Background()
	specs := []Spec{
		{Name: "b1", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn},
		{Name: "b2", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: dateKeyFn},
	}
	live, lc := newManagerOver(t, 300, ManagerOptions{})
	mustRegister(t, live, specs...)
	for _, s := range specs {
		if err := live.Ensure(ctx, s.Name); err != nil {
			t.Fatal(err)
		}
	}
	entries := live.PersistEntries()
	var total, largest int64
	for _, e := range entries {
		total += e.SizeBytes
		if e.SizeBytes > largest {
			largest = e.SizeBytes
		}
	}

	// A budget that fits one structure but not both: recovery must adopt
	// what fits and evict the rest rather than over-commit.
	m := NewManager(ctx, lc, ManagerOptions{StructureBudget: total - 1})
	mustRegister(t, m, specs...)
	st := m.Recover(entries)
	if st.Recovered+st.Evicted != 2 || st.Recovered < 1 {
		t.Fatalf("stats %+v, want 2 entries split with ≥1 recovered", st)
	}
	if st.Evicted < 1 {
		t.Fatalf("stats %+v: over-budget checkpoint recovered without evicting", st)
	}
	if got := m.ResidentBytes(); got > total-1 {
		t.Fatalf("resident %d exceeds budget %d after recovery", got, total-1)
	}
}

func TestRecoverCleansPartialBuildFiles(t *testing.T) {
	ctx := context.Background()
	m, c := newManagerOver(t, 50, ManagerOptions{})
	spec := Spec{Name: "partial", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn}
	mustRegister(t, m, spec)
	// A snapshot taken mid-build restored a partial index file, but the
	// registry (correctly) has no entry for it.
	f, err := c.CreateFile("partial", dfs.Btree, 2, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	st := m.Recover(nil)
	if st.Recovered != 0 || st.Evicted != 0 || st.Skipped != 0 {
		t.Fatalf("stats %+v, want all zero", st)
	}
	if _, err := c.File("partial"); err == nil {
		t.Fatal("partial build file must be dropped on recovery")
	}
	if err := m.Ensure(ctx, "partial"); err != nil {
		t.Fatalf("rebuild after cleanup: %v", err)
	}
}

func TestRecoverLeavesBuiltStructuresAlone(t *testing.T) {
	ctx := context.Background()
	m, _ := newManagerOver(t, 100, ManagerOptions{})
	spec := Spec{Name: "alive", Base: "orders", Kind: Global, PartKey: partKeyFn, Keys: custKeyFn}
	mustRegister(t, m, spec)
	if err := m.Ensure(ctx, "alive"); err != nil {
		t.Fatal(err)
	}
	// A stale checkpoint must not clobber a structure already built this
	// boot.
	st := m.Recover([]PersistEntry{{Name: "alive", Base: "orders", Kind: Global,
		State: StateEvicted, Builds: 99}})
	if st.Recovered != 0 || st.Evicted != 0 {
		t.Fatalf("stats %+v, want untouched", st)
	}
	if s, _ := m.State("alive"); s != StateReady {
		t.Fatalf("state %v, want ready preserved", s)
	}
	if got := m.PersistEntries(); got[0].Builds == 99 {
		t.Fatal("stale checkpoint overwrote live build count")
	}
}
