package store_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lakeharbor/internal/catalog"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
)

// Tests for store.Recover, the one boot order: whatever happened between
// the checkpoint and the crash, every recovered ready structure must equal
// its spec applied to a scan of its base, and maintenance must record no
// error.

// valSpec indexes "base" rows "id|val" under val, globally.
func valSpec(name string) indexer.Spec {
	return indexer.Spec{Name: name, Base: "base", Kind: indexer.Global,
		PartKey: func(r lake.Record) (lake.Key, error) { return r.Key, nil },
		Keys: func(r lake.Record) ([]lake.Key, error) {
			_, v, _ := strings.Cut(string(r.Data), "|")
			n, err := strconv.Atoi(v)
			return []lake.Key{keycodec.Int64(int64(n))}, err
		}}
}

// valScript is valSpec as a script.
const valScript = `fn partkey(key, data) { return key }
fn keys(key, data) { emit(keyint(int(substr(data, find(data, "|") + 1, len(data))))) }`

// durableLake is a live lake checkpointed at birth, whose later ingests and
// catalog ops go through a WAL, the way lakeserve -data runs one.
type durableLake struct {
	t         *testing.T
	snap, wal string
	live      *dfs.Cluster
	mgr       *indexer.Manager
	scripts   *script.Registry
	w         *store.WAL
}

// newDurableLake loads 200 base rows, builds specs plus one structure per
// binding, checkpoints, and opens the WAL.
func newDurableLake(t *testing.T, specs []indexer.Spec, bindings ...script.SpecBinding) *durableLake {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	l := &durableLake{t: t, snap: filepath.Join(dir, "snap.lake"), wal: filepath.Join(dir, "wal.log"),
		live: dfs.NewCluster(dfs.Config{Nodes: 2}), scripts: script.NewRegistry(script.Limits{})}
	if _, err := l.live.CreateFile("base", dfs.Btree, 4, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	l.append(0, 200, false)
	l.mgr = indexer.NewManager(ctx, l.live, indexer.ManagerOptions{})
	if len(bindings) > 0 {
		if _, err := l.scripts.Put("vals", valScript); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range bindings {
		spec, err := l.scripts.Bind(b)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		l.build(spec)
	}
	if err := store.Checkpoint(ctx, l.snap, l.live, l.mgr, l.scripts); err != nil {
		t.Fatal(err)
	}
	w, err := store.OpenWAL(l.wal)
	if err != nil {
		t.Fatal(err)
	}
	l.w = w
	catalog.Attach(l.live, w)
	return l
}

func (l *durableLake) build(spec indexer.Spec) {
	l.t.Helper()
	if err := l.mgr.Register(spec); err != nil {
		l.t.Fatal(err)
	}
	if err := l.mgr.Ensure(context.Background(), spec.Name); err != nil {
		l.t.Fatal(err)
	}
}

// append adds rows [from, from+n), WAL-logged first when logged is set.
func (l *durableLake) append(from, n int, logged bool) {
	l.t.Helper()
	appendRows(l.t, l.live, from, n, func(k lake.Key, rec lake.Record) error {
		if !logged {
			return nil
		}
		return l.w.Append("base", k, rec)
	})
}

func appendRows(t *testing.T, c *dfs.Cluster, from, n int, before func(lake.Key, lake.Record) error) {
	t.Helper()
	f, err := c.File("base")
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < from+n; i++ {
		k := keycodec.Int64(int64(i))
		rec := lake.Record{Key: k, Data: []byte(fmt.Sprintf("%d|%d", i, i%7))}
		if err := before(k, rec); err != nil {
			t.Fatal(err)
		}
		if err := dfs.AppendRouted(context.Background(), f, k, rec); err != nil {
			t.Fatal(err)
		}
	}
}

// crash abandons the live lake and recovers a fresh one with the compiled
// specs registered, the way a reboot does.
func (l *durableLake) crash(specs ...indexer.Spec) (*dfs.Cluster, *indexer.Manager, *script.Registry, *store.Recovery) {
	l.t.Helper()
	if err := l.w.Close(); err != nil {
		l.t.Fatal(err)
	}
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	mgr := indexer.NewManager(ctx, c, indexer.ManagerOptions{})
	for _, spec := range specs {
		if err := mgr.Register(spec); err != nil {
			l.t.Fatal(err)
		}
	}
	reg := script.NewRegistry(script.Limits{})
	rec, err := store.Recover(ctx, l.snap, l.wal, c, mgr, reg)
	if err != nil {
		l.t.Fatal(err)
	}
	return c, mgr, reg, rec
}

// assertMatchesScan requires the index file to hold exactly the entries
// spec extracts from a scan of its base.
func assertMatchesScan(t *testing.T, c *dfs.Cluster, spec indexer.Spec) {
	t.Helper()
	scan := func(file string, each func(lake.Record) []string) []string {
		f, err := c.File(file)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for p := 0; p < f.NumPartitions(); p++ {
			if err := f.Scan(context.Background(), p, func(r lake.Record) error {
				out = append(out, each(r)...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		sort.Strings(out)
		return out
	}
	got := scan(spec.Name, func(r lake.Record) []string {
		pk, key, err := lake.DecodeIndexEntry(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		return []string{fmt.Sprintf("%x %x %x", r.Key, pk, key)}
	})
	want := scan(spec.Base, func(r lake.Record) []string {
		pk, err := spec.PartKey(r)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := spec.Keys(r)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, k := range keys {
			out = append(out, fmt.Sprintf("%x %x %x", k, pk, r.Key))
		}
		return out
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: index holds %d entries, a scan of %s gives %d", spec.Name, len(got), spec.Base, len(want))
	}
}

// assertRecovered checks every invariant a recovery must leave behind: each
// named structure has the wanted state and, once ready (Ensure-d when
// evicted), equals the scan, also after further base appends; maintenance
// records no error.
func assertRecovered(t *testing.T, c *dfs.Cluster, mgr *indexer.Manager, want map[string]indexer.State) {
	t.Helper()
	for name, st := range want {
		if got, err := mgr.State(name); err != nil || got != st {
			t.Fatalf("%s recovered %v (%v), want %v", name, got, err, st)
		}
		if _, err := c.File(name); (err == nil) != (st == indexer.StateReady) {
			t.Fatalf("%s is %v, but its file exists = %v", name, st, err == nil)
		}
	}
	appendRows(t, c, 1000, 10, func(lake.Key, lake.Record) error { return nil })
	for name := range want {
		if err := mgr.Ensure(context.Background(), name); err != nil {
			t.Fatal(err)
		}
		assertMatchesScan(t, c, valSpec(name))
	}
	if n := mgr.Maintainer().Errors(); n != 0 {
		t.Fatalf("%d maintenance errors, last %v", n, mgr.Maintainer().LastErr())
	}
}

func TestRecoverScenarios(t *testing.T) {
	idx, other := valSpec("base_val_idx"), valSpec("base_val_late")

	// (a) Records appended to an indexed base after the checkpoint reach
	// the adopted index on replay, without a build.
	t.Run("appends", func(t *testing.T) {
		l := newDurableLake(t, []indexer.Spec{idx})
		l.append(200, 50, true)
		c, mgr, _, rec := l.crash(idx)
		if rec.WALRecords != 50 || rec.Structures.Recovered != 1 {
			t.Fatalf("recovery %+v, want 50 WAL records and 1 structure ready", rec)
		}
		if n := mgr.Counters().BuildsStarted; n != 0 {
			t.Fatalf("recovery started %d builds", n)
		}
		if v, want := c.CatalogVersion(), l.live.CatalogVersion(); v != want {
			t.Fatalf("recovered catalog version %d, want the live %d", v, want)
		}
		assertRecovered(t, c, mgr, map[string]indexer.State{idx.Name: indexer.StateReady})
	})

	// (b) An eviction and rebuild after the checkpoint leave a drop and a
	// create of the index file in the WAL, but not the rebuilt entries: the
	// structure must come back evicted, with no husk.
	t.Run("evict-rebuild", func(t *testing.T) {
		l := newDurableLake(t, []indexer.Spec{idx})
		if err := l.mgr.Evict(idx.Name); err != nil {
			t.Fatal(err)
		}
		l.append(200, 20, true)
		if err := l.mgr.Ensure(context.Background(), idx.Name); err != nil {
			t.Fatal(err)
		}
		l.append(220, 30, true)
		c, mgr, _, rec := l.crash(idx)
		if rec.Structures.Recovered != 0 || rec.Structures.Evicted != 1 {
			t.Fatalf("recovery %+v, want the structure demoted to evicted", rec.Structures)
		}
		assertRecovered(t, c, mgr, map[string]indexer.State{idx.Name: indexer.StateEvicted})
	})

	// (c) A structure built after the checkpoint is not in it: the file the
	// WAL re-creates is a husk and must not survive.
	t.Run("built-after-checkpoint", func(t *testing.T) {
		l := newDurableLake(t, []indexer.Spec{idx})
		l.build(other)
		l.append(200, 20, true)
		c, mgr, _, _ := l.crash(idx, other)
		assertRecovered(t, c, mgr, map[string]indexer.State{
			idx.Name: indexer.StateReady, other.Name: indexer.StateAbsent})
	})

	// (d) A scripted structure recovers from the snapshot alone — script,
	// binding and registry entry — ready, with no build, and maintained.
	t.Run("scripted", func(t *testing.T) {
		l := newDurableLake(t, nil, script.SpecBinding{Structure: "base_val_idx", Base: "base",
			Kind: "global", Script: "vals", PartKeyFn: "partkey", KeysFn: "keys"})
		l.append(200, 50, true)
		c, mgr, reg, rec := l.crash()
		if _, ok := reg.Get("vals"); !ok || rec.Scripts != 1 {
			t.Fatalf("script not recovered (recovery %+v)", rec)
		}
		if n := mgr.Counters().BuildsStarted; n != 0 {
			t.Fatalf("recovery started %d builds", n)
		}
		assertRecovered(t, c, mgr, map[string]indexer.State{idx.Name: indexer.StateReady})
	})
}
