package store

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
	"lakeharbor/internal/sim"
)

// Tests for the durability layer: metadata round-trips, the v3 golden
// stream, rejection of retired versions, the all-or-nothing restore
// contract, checkpoint temp-file hygiene, WAL frame atomicity under writer
// faults, and the crash-recovery property the whole layer exists for.

func testMeta() *SnapshotMeta {
	return &SnapshotMeta{
		CatalogVersion: 42,
		Structures: []indexer.PersistEntry{
			{Name: "idx_a", Base: "tree", Kind: indexer.Local,
				State: indexer.StateReady, SizeBytes: 12345, RebuildCost: 1.5e6, Builds: 3},
			{Name: "idx_b", Base: "heap", Kind: indexer.Global,
				State: indexer.StateEvicted, SizeBytes: 0, RebuildCost: 2.25e7, Builds: 7},
		},
		Scripts: []script.PersistEntry{
			{Name: "validx", Source: "fn partkey(key, data) {\n\treturn key\n}\n\nfn keys(key, data) {\n\temit(key)\n}"},
		},
		ScriptSpecs: []script.SpecBinding{
			{Structure: "idx_a", Base: "tree", Kind: "local", Partitions: 4,
				Script: "validx", PartKeyFn: "partkey", KeysFn: "keys"},
		},
	}
}

func TestSnapshotMetaRoundTrip(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	meta := testMeta()
	var buf bytes.Buffer
	if err := WriteSnapshot(ctx, src, meta, &buf); err != nil {
		t.Fatal(err)
	}
	dst := dfs.NewCluster(dfs.Config{Nodes: 3})
	got, err := ReadSnapshot(ctx, bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, meta) {
		t.Fatalf("meta round-trip:\n got %+v\nwant %+v", got, meta)
	}
	if v := dst.CatalogVersion(); v != meta.CatalogVersion {
		t.Fatalf("restored cluster at catalog version %d, want the snapshot's %d", v, meta.CatalogVersion)
	}
	clustersEqual(t, src, dst)
}

// snapshotV3Golden is the byte-exact v3 stream of the cluster and meta
// goldenCluster returns. Any change to it is a format change: readers of existing
// snapshots must keep decoding it.
const snapshotV3Golden = "4c414b454842330a" + // magic "LAKEHB3\n"
	"0200000000000000" + "02000000" + // catalog version 2, two files
	"0100000068" + "00" + "00" + "01000000" + // "h": heap, hash, 1 partition
	"0100000000000000" + "0100000061" + "0100000031" + // 1 record: "a" → "1"
	"0100000072" + "01" + "01" + "01000000" + "010000006d" + "02000000" + // "r": btree, range ["m"], 2 partitions
	"0000000000000000" + "0100000000000000" + "010000007a" + "00000000" + // p0 empty, p1: "z" → ""
	"01000000" + "0100000072" + "0100000068" + "01" + "00" + // one structure: "r" over "h", global, ready
	"0900000000000000" + "000000000000f83f" + "0100000000000000" + // 9 bytes, cost 1.5, 1 build
	"01000000" + "0100000073" + "1d000000" + // one script "s", 29 bytes of source
	"666e206b286b65792c206461746129207b20656d6974286b657929207d" +
	"01000000" + "0100000072" + "0100000068" + "06000000676c6f62616c" + "02000000" + // one binding: "r" over "h", "global", 2 partitions
	"0100000073" + "0100000070" + "010000006b" + // script "s", partkey "p", keys "k"
	"e7cd9f44" // CRC-32

func goldenCluster(t *testing.T) (*dfs.Cluster, *SnapshotMeta) {
	t.Helper()
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	h, err := c.CreateFile("h", dfs.Heap, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.CreateFile("r", dfs.Btree, 2, lake.NewRangePartitioner("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(ctx, 0, lake.Record{Key: "a", Data: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(ctx, 1, lake.Record{Key: "z"}); err != nil {
		t.Fatal(err)
	}
	return c, &SnapshotMeta{
		CatalogVersion: 2,
		Structures: []indexer.PersistEntry{{Name: "r", Base: "h", Kind: indexer.Global,
			State: indexer.StateReady, SizeBytes: 9, RebuildCost: 1.5, Builds: 1}},
		Scripts: []script.PersistEntry{{Name: "s", Source: "fn k(key, data) { emit(key) }"}},
		ScriptSpecs: []script.SpecBinding{{Structure: "r", Base: "h", Kind: "global", Partitions: 2,
			Script: "s", PartKeyFn: "p", KeysFn: "k"}},
	}
}

// TestSnapshotV3Golden pins the writer to the v3 format byte for byte, and
// the reader to decoding that stream back into the same cluster and meta.
func TestSnapshotV3Golden(t *testing.T) {
	ctx := context.Background()
	src, meta := goldenCluster(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(ctx, src, meta, &buf); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != snapshotV3Golden {
		t.Fatalf("v3 stream moved:\n got %s\nwant %s", got, snapshotV3Golden)
	}
	raw, err := hex.DecodeString(snapshotV3Golden)
	if err != nil {
		t.Fatal(err)
	}
	dst := dfs.NewCluster(dfs.Config{Nodes: 2})
	got, err := ReadSnapshot(ctx, bytes.NewReader(raw), dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, meta) {
		t.Fatalf("golden meta:\n got %+v\nwant %+v", got, meta)
	}
	clustersEqual(t, src, dst)
}

// requireRetiredVersionRejected: a stream with a retired magic fails on
// that magic with a named error, before any file reaches the catalog.
func requireRetiredVersionRejected(t *testing.T, magic string) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeU64(&buf, 1) // what follows the magic no longer matters
	dst := dfs.NewCluster(dfs.Config{Nodes: 1})
	_, err := ReadSnapshot(context.Background(), &buf, dst)
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
		t.Fatalf("%q: want an unsupported-version error, got %v", magic, err)
	}
	if len(dst.FileNames()) != 0 {
		t.Fatalf("%q: catalog touched by rejected snapshot", magic)
	}
}

// TestRestoreV1Snapshot: the v1 format (no catalog version, registry or
// script sections) is retired; reading it is a named error.
func TestRestoreV1Snapshot(t *testing.T) {
	requireRetiredVersionRejected(t, "LAKEHB1\n")
}

// TestRestoreV2Snapshot: the v2 format (no script sections) is retired;
// reading it is a named error.
func TestRestoreV2Snapshot(t *testing.T) {
	requireRetiredVersionRejected(t, "LAKEHB2\n")
}

// TestRestoreCorruptionLeavesCatalogUntouched is the regression test for
// the restore-ordering bug: a snapshot whose checksum fails must not leave
// partially restored files behind. Every corruption position must yield
// both an error and an untouched (empty) catalog.
func TestRestoreCorruptionLeavesCatalogUntouched(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(ctx, src, testMeta(), &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Sample corruption positions across the whole stream, including the
	// header, record payloads, the structure section, and the CRC itself.
	positions := []int{len(snapshotMagic), len(snapshotMagic) + 9, len(raw) / 4,
		len(raw) / 2, 3 * len(raw) / 4, len(raw) - 5, len(raw) - 1}
	for _, pos := range positions {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		dst := dfs.NewCluster(dfs.Config{Nodes: 2})
		if _, err := ReadSnapshot(ctx, bytes.NewReader(bad), dst); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
		if names := dst.FileNames(); len(names) != 0 {
			t.Fatalf("corruption at byte %d: catalog polluted with %v", pos, names)
		}
	}
	// Truncations must behave the same.
	for _, cut := range []int{1, 4, len(raw) / 3, len(raw) - 1} {
		dst := dfs.NewCluster(dfs.Config{Nodes: 2})
		if _, err := ReadSnapshot(ctx, bytes.NewReader(raw[:len(raw)-cut]), dst); err == nil {
			t.Fatalf("truncation by %d not detected", cut)
		}
		if names := dst.FileNames(); len(names) != 0 {
			t.Fatalf("truncation by %d: catalog polluted with %v", cut, names)
		}
	}
}

// badPartitioner is a partitioner the snapshot format cannot serialize,
// used to force a mid-write failure inside CheckpointToPath.
type badPartitioner struct{}

func (badPartitioner) Partition(key lake.Key, n int) int { return 0 }
func (badPartitioner) Name() string                      { return "bad" }

// TestCheckpointTempFileCleanup pins the temp-file contract: every failure
// path of CheckpointToPath removes the temp file and leaves any previous
// snapshot at the target path intact.
func TestCheckpointTempFileCleanup(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c := buildCluster(t)
	target := filepath.Join(dir, "snap.lake")
	if err := CheckpointToPath(ctx, c, nil, target); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}

	// Failure during the snapshot write: an unserializable partitioner.
	bad := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := bad.CreateFile("odd", dfs.Heap, 1, badPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckpointToPath(ctx, bad, nil, target); err == nil {
		t.Fatal("checkpoint of unserializable cluster must fail")
	}

	// Failure at rename time: the target is a directory.
	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := CheckpointToPath(ctx, c, nil, blocked); err == nil {
		t.Fatal("checkpoint onto a directory must fail")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind after failed checkpoint", e.Name())
		}
	}
	after, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed checkpoint corrupted the previous snapshot")
	}
}

// flakyWriter delivers short writes and injected errors: at most chunk
// bytes per call, with every other call failing after a partial write.
type flakyWriter struct {
	buf   bytes.Buffer
	chunk int
	calls int
	fail  bool // alternate failures when set
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	w.calls++
	n := len(p)
	if n > w.chunk {
		n = w.chunk
	}
	if w.fail && w.calls%2 == 1 {
		// Accept part of the data, then fail: the cruellest torn write.
		half := n / 2
		w.buf.Write(p[:half])
		return half, errors.New("injected write fault")
	}
	w.buf.Write(p[:n])
	return n, nil
}

// TestWALSurvivesWriterFaults is the regression test for frame atomicity:
// a writer that fails mid-frame with partial writes must never corrupt the
// log — retried flushes resume exactly where the fault hit, and replay
// recovers every appended record.
func TestWALSurvivesWriterFaults(t *testing.T) {
	ctx := context.Background()
	fw := &flakyWriter{chunk: 7, fail: true}
	w := newTestWAL(fw)
	const n = 50
	for i := 0; i < n; i++ {
		k := keycodec.Int64(int64(i))
		if err := w.Append("heap", k, lake.Record{Key: k, Data: []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := w.AppendCatalogOp(CatalogOp{Drop: true, Name: fmt.Sprintf("ghost%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Sync until the flaky writer lets everything through.
	var synced bool
	for attempt := 0; attempt < 10000; attempt++ {
		if err := w.Sync(); err == nil {
			synced = true
			break
		}
	}
	if !synced {
		t.Fatal("flush never completed despite retries")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay the faulted byte stream: all n records, in order, no errors.
	dir := t.TempDir()
	path := filepath.Join(dir, "flaky.wal")
	if err := os.WriteFile(path, fw.buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	if _, err := c.CreateFile("heap", dfs.Heap, 2, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	applied, err := ReplayWAL(ctx, path, c)
	if err != nil {
		t.Fatalf("replay of fault-recovered log: %v", err)
	}
	if applied != n {
		t.Fatalf("replayed %d records, want %d", applied, n)
	}
	if cnt, _ := c.Len("heap"); cnt != n {
		t.Fatalf("heap has %d records after replay, want %d", cnt, n)
	}
}

// TestWALFaultTearsOnlyTail: when the writer dies for good mid-flush, the
// on-disk prefix must replay cleanly — the fault may tear the frame it
// interrupted, never an earlier one.
func TestWALFaultTearsOnlyTail(t *testing.T) {
	ctx := context.Background()
	fw := &flakyWriter{chunk: 5}
	w := newTestWAL(fw)
	const n = 20
	for i := 0; i < n; i++ {
		k := keycodec.Int64(int64(i))
		if err := w.Append("heap", k, lake.Record{Key: k, Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	// Flush part of the log, then "crash": stop writing mid-stream.
	fw.fail = true
	w.Sync() // fails partway; some prefix reached the writer

	dir := t.TempDir()
	path := filepath.Join(dir, "torn.wal")
	if err := os.WriteFile(path, fw.buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	if _, err := c.CreateFile("heap", dfs.Heap, 2, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	applied, err := ReplayWAL(ctx, path, c)
	if err != nil {
		t.Fatalf("torn tail must replay without error, got: %v", err)
	}
	if applied > n {
		t.Fatalf("replayed %d records from a %d-record log", applied, n)
	}
	// Replayed records must be the exact prefix 0..applied-1: a mid-log
	// tear would manifest as a gap.
	heap, err := c.File("heap")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < applied; i++ {
		k := keycodec.Int64(int64(i))
		p := heap.Partitioner().Partition(k, heap.NumPartitions())
		recs, err := heap.Lookup(ctx, p, k)
		if err != nil || len(recs) != 1 {
			t.Fatalf("record %d missing after prefix replay (err=%v)", i, err)
		}
	}
}

// TestRestoreRejectsAbsurdPartitionCount pins the nParts bound: a corrupt
// partition count fails parsing before any allocation or catalog touch.
func TestRestoreRejectsAbsurdPartitionCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	writeU64(&buf, 1)                      // catalog version
	writeU32(&buf, 1)                      // one file
	writeString(&buf, "evil")              // name
	writeByte(&buf, kindHeap)              // kind
	writeByte(&buf, partHash)              // partitioner
	writeU32(&buf, uint32(maxSaneParts)+1) // absurd partition count
	dst := dfs.NewCluster(dfs.Config{Nodes: 1})
	_, err := ReadSnapshot(context.Background(), bytes.NewReader(buf.Bytes()), dst)
	if err == nil || !strings.Contains(err.Error(), "absurd partition count") {
		t.Fatalf("want absurd-partition-count error, got %v", err)
	}
	if len(dst.FileNames()) != 0 {
		t.Fatal("catalog touched by rejected snapshot")
	}
}

// TestCrashRecoveryProperty is the seeded end-to-end durability property:
// for each seed, a random base state is checkpointed, random
// post-checkpoint mutations (ingest, catalog creates and drops) go through
// the WAL, and a fresh cluster recovered from snapshot + replay must equal
// the live one exactly.
func TestCrashRecoveryProperty(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			crashRecoveryOnce(t, int64(s))
		})
	}
}

func crashRecoveryOnce(t *testing.T, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	live := dfs.NewCluster(dfs.Config{Nodes: 1 + rng.Intn(4)})

	// Random base state.
	nFiles := 1 + rng.Intn(4)
	var names []string
	for i := 0; i < nFiles; i++ {
		name := fmt.Sprintf("f%d", i)
		kind := dfs.Heap
		if rng.Intn(2) == 1 {
			kind = dfs.Btree
		}
		var p lake.Partitioner = lake.HashPartitioner{}
		if rng.Intn(3) == 0 {
			p = lake.NewRangePartitioner(keycodec.Int64(100), keycodec.Int64(500))
		}
		f, err := live.CreateFile(name, kind, 1+rng.Intn(5), p)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < rng.Intn(200); j++ {
			k := keycodec.Int64(int64(rng.Intn(1000)))
			rec := lake.Record{Key: k, Data: []byte(fmt.Sprintf("s%d-%d", seed, j))}
			if err := dfs.AppendRouted(ctx, f, k, rec); err != nil {
				t.Fatal(err)
			}
		}
		names = append(names, name)
	}

	// Checkpoint.
	meta := &SnapshotMeta{CatalogVersion: live.CatalogVersion()}
	var snap bytes.Buffer
	if err := WriteSnapshot(ctx, live, meta, &snap); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint mutations, WAL-logged write-ahead.
	walPath := filepath.Join(t.TempDir(), "tail.wal")
	w, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	nOps := rng.Intn(120)
	extra := 0
	for i := 0; i < nOps; i++ {
		switch op := rng.Intn(10); {
		case op == 0: // create a new file
			name := fmt.Sprintf("post%d", extra)
			extra++
			cop := CatalogOp{Name: name, Kind: dfs.Heap, Partitions: 1 + rng.Intn(3),
				Partitioner: lake.HashPartitioner{}}
			if err := w.AppendCatalogOp(cop); err != nil {
				t.Fatal(err)
			}
			if _, err := live.CreateFile(cop.Name, cop.Kind, cop.Partitions, cop.Partitioner); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		case op == 1 && len(names) > 1: // drop one
			victim := names[rng.Intn(len(names))]
			if err := w.AppendCatalogOp(CatalogOp{Drop: true, Name: victim}); err != nil {
				t.Fatal(err)
			}
			live.DropFile(victim)
			for i, n := range names {
				if n == victim {
					names = append(names[:i], names[i+1:]...)
					break
				}
			}
		default: // ingest
			name := names[rng.Intn(len(names))]
			f, err := live.File(name)
			if err != nil {
				t.Fatal(err)
			}
			k := keycodec.Int64(int64(rng.Intn(1000)))
			rec := lake.Record{Key: k, Data: []byte(fmt.Sprintf("wal%d", i))}
			if err := w.Append(name, k, rec); err != nil {
				t.Fatal(err)
			}
			if err := dfs.AppendRouted(ctx, f, k, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash; recover; compare.
	rec := dfs.NewCluster(dfs.Config{Nodes: live.NumNodes()})
	gotMeta, err := ReadSnapshot(ctx, bytes.NewReader(snap.Bytes()), rec)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.CatalogVersion != meta.CatalogVersion {
		t.Fatalf("catalog version %d, want %d", gotMeta.CatalogVersion, meta.CatalogVersion)
	}
	if _, err := ReplayWAL(ctx, walPath, rec); err != nil {
		t.Fatal(err)
	}
	clustersEqual(t, live, rec)
}

// TestRecoveryTenTimesFasterThanRebuild is the acceptance benchmark: on a
// cluster with a priced cost model, recovering a built structure from a
// checkpoint must beat rebuilding it from a raw scan by at least 10x —
// recovery restores bytes and registry state, never re-scanning the base.
func TestRecoveryTenTimesFasterThanRebuild(t *testing.T) {
	ctx := context.Background()
	// Rebuild time is sleep-dominated (rows/partition × ScanPerRecord, the
	// partitions scanning in parallel) while recovery is pure CPU, which the
	// race detector slows several-fold — so the scan price is set high
	// enough that the 10x floor holds under -race too.
	cost := sim.CostModel{ScanPerRecord: 1500 * time.Microsecond}
	const rows = 2000
	spec := indexer.Spec{
		Name: "base_idx", Base: "base", Kind: indexer.Global,
		PartKey: func(rec lake.Record) (lake.Key, error) { return rec.Key, nil },
		Keys:    func(rec lake.Record) ([]lake.Key, error) { return []lake.Key{rec.Key}, nil },
	}

	// Build the reference state and its checkpoint on an unpriced cluster:
	// checkpoint cost is paid before the crash and is not what this test
	// measures.
	live := dfs.NewCluster(dfs.Config{Nodes: 2})
	f, err := live.CreateFile("base", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		k := keycodec.Int64(int64(i))
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte("payload")}); err != nil {
			t.Fatal(err)
		}
	}
	mgr := indexer.NewManager(ctx, live, indexer.ManagerOptions{})
	if err := mgr.Register(spec); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Ensure(ctx, spec.Name); err != nil {
		t.Fatal(err)
	}
	meta := &SnapshotMeta{CatalogVersion: live.CatalogVersion(), Structures: mgr.PersistEntries()}
	var snap bytes.Buffer
	if err := WriteSnapshot(ctx, live, meta, &snap); err != nil {
		t.Fatal(err)
	}

	// Recovery cost on the priced cluster: restore the snapshot (appends
	// are unpriced, like any load path) and adopt the registry — no scan,
	// no build.
	recStart := time.Now()
	recovered := dfs.NewCluster(dfs.Config{Nodes: 2, Cost: cost})
	recMeta, err := ReadSnapshot(ctx, bytes.NewReader(snap.Bytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := indexer.NewManager(ctx, recovered, indexer.ManagerOptions{})
	if err := mgr2.Register(spec); err != nil {
		t.Fatal(err)
	}
	st := mgr2.Recover(recMeta.Structures)
	recDur := time.Since(recStart)

	if st.Recovered != 1 {
		t.Fatalf("recover stats %+v, want 1 recovered", st)
	}
	if s, err := mgr2.State(spec.Name); err != nil || s != indexer.StateReady {
		t.Fatalf("recovered state %v, %v; want ready", s, err)
	}
	if c := mgr2.Counters(); c.BuildsStarted != 0 {
		t.Fatalf("recovery started %d builds", c.BuildsStarted)
	}
	if n, _ := recovered.Len(spec.Name); n != rows {
		t.Fatalf("recovered index has %d entries, want %d", n, rows)
	}

	// Rebuild cost on the same priced cluster: evict and Ensure forces the
	// full base scan the checkpoint spared us.
	if err := mgr2.Evict(spec.Name); err != nil {
		t.Fatal(err)
	}
	buildStart := time.Now()
	if err := mgr2.Ensure(ctx, spec.Name); err != nil {
		t.Fatal(err)
	}
	buildDur := time.Since(buildStart)

	if recDur*10 > buildDur {
		t.Fatalf("recovery %v not ≥10x faster than rebuild %v", recDur, buildDur)
	}
	t.Logf("recovery %v vs rebuild %v (%.1fx)", recDur, buildDur, float64(buildDur)/float64(recDur))
}
