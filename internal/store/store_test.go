package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// buildCluster makes a cluster with a heap file, a hash btree file, and a
// range-partitioned btree file, with assorted records.
func buildCluster(t testing.TB) *dfs.Cluster {
	t.Helper()
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})

	h, err := c.CreateFile("heap", dfs.Heap, 2, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateFile("tree", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	rp := lake.NewRangePartitioner(keycodec.Int64(50), keycodec.Int64(150))
	rg, err := c.CreateFile("ranged", dfs.Btree, 3, rp)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		k := keycodec.Int64(i)
		data := []byte(fmt.Sprintf("row-%d|payload", i))
		if err := dfs.AppendRouted(ctx, h, k, lake.Record{Key: k, Data: data}); err != nil {
			t.Fatal(err)
		}
		if err := dfs.AppendRouted(ctx, b, k, lake.Record{Key: k, Data: data}); err != nil {
			t.Fatal(err)
		}
		if err := dfs.AppendRouted(ctx, rg, k, lake.Record{Key: k, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate keys and empty payloads must survive too.
	b.Append(ctx, 0, lake.Record{Key: "dup", Data: []byte("a")})
	b.Append(ctx, 0, lake.Record{Key: "dup", Data: []byte("b")})
	b.Append(ctx, 1, lake.Record{Key: "empty", Data: nil})
	return c
}

// clustersEqual compares full contents, partition by partition.
func clustersEqual(t *testing.T, a, b *dfs.Cluster) {
	t.Helper()
	ctx := context.Background()
	namesA, namesB := a.FileNames(), b.FileNames()
	if len(namesA) != len(namesB) {
		t.Fatalf("file counts differ: %v vs %v", namesA, namesB)
	}
	for _, name := range namesA {
		fa, err := a.File(name)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := b.File(name)
		if err != nil {
			t.Fatalf("restored cluster missing %q: %v", name, err)
		}
		if fa.NumPartitions() != fb.NumPartitions() {
			t.Fatalf("%s: partitions %d vs %d", name, fa.NumPartitions(), fb.NumPartitions())
		}
		if fa.Partitioner().Name() != fb.Partitioner().Name() {
			t.Fatalf("%s: partitioner %s vs %s", name, fa.Partitioner().Name(), fb.Partitioner().Name())
		}
		if rpA, ok := fa.Partitioner().(lake.RangePartitioner); ok {
			rpB := fb.Partitioner().(lake.RangePartitioner)
			if len(rpA.Bounds) != len(rpB.Bounds) {
				t.Fatalf("%s: bound counts differ", name)
			}
			for i := range rpA.Bounds {
				if rpA.Bounds[i] != rpB.Bounds[i] {
					t.Fatalf("%s: bound %d differs", name, i)
				}
			}
		}
		for p := 0; p < fa.NumPartitions(); p++ {
			var ra, rb []lake.Record
			if err := fa.Scan(ctx, p, func(r lake.Record) error { ra = append(ra, r); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := fb.Scan(ctx, p, func(r lake.Record) error { rb = append(rb, r); return nil }); err != nil {
				t.Fatal(err)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%s/%d: %d vs %d records", name, p, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i].Key != rb[i].Key || !bytes.Equal(ra[i].Data, rb[i].Data) {
					t.Fatalf("%s/%d: record %d differs", name, p, i)
				}
			}
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(ctx, src, nil, &buf); err != nil {
		t.Fatal(err)
	}
	dst := dfs.NewCluster(dfs.Config{Nodes: 3}) // different node count is fine
	if _, err := ReadSnapshot(ctx, &buf, dst); err != nil {
		t.Fatal(err)
	}
	clustersEqual(t, src, dst)
}

func TestSnapshotToPathAndBack(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	path := filepath.Join(t.TempDir(), "snap.lake")
	if err := CheckpointToPath(ctx, src, nil, path); err != nil {
		t.Fatal(err)
	}
	dst := dfs.NewCluster(dfs.Config{Nodes: 2})
	if _, err := ReadSnapshotFromPath(ctx, path, dst); err != nil {
		t.Fatal(err)
	}
	clustersEqual(t, src, dst)
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
}

func TestRestoreRejectsBadMagic(t *testing.T) {
	dst := dfs.NewCluster(dfs.Config{Nodes: 1})
	_, err := ReadSnapshot(context.Background(), strings.NewReader("NOTASNAPSHOT"), dst)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error = %v", err)
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(ctx, src, nil, &buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	dst := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := ReadSnapshot(ctx, bytes.NewReader(cut), dst); err == nil {
		t.Fatal("truncated snapshot restored without error")
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(ctx, src, nil, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xFF // flip a payload byte
	dst := dfs.NewCluster(dfs.Config{Nodes: 1})
	_, err := ReadSnapshot(ctx, bytes.NewReader(raw), dst)
	if err == nil {
		t.Fatal("corrupted snapshot restored without error")
	}
}

func TestRestoreRefusesExistingFile(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(ctx, src, nil, &buf); err != nil {
		t.Fatal(err)
	}
	dst := dfs.NewCluster(dfs.Config{Nodes: 1})
	dst.CreateFile("tree", dfs.Btree, 1, lake.HashPartitioner{})
	if _, err := ReadSnapshot(ctx, &buf, dst); err == nil {
		t.Fatal("restore over existing file should fail")
	}
}

func TestWALAppendReplay(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := int64(0); i < n; i++ {
		k := keycodec.Int64(i)
		if err := w.Append("tree", k, lake.Record{Key: k, Data: []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := w.Append("tree", "k", lake.Record{}); err == nil {
		t.Error("append after close accepted")
	}

	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	c.CreateFile("tree", dfs.Btree, 4, lake.HashPartitioner{})
	applied, err := ReplayWAL(ctx, path, c)
	if err != nil {
		t.Fatal(err)
	}
	if applied != n {
		t.Fatalf("replayed %d records, want %d", applied, n)
	}
	if got, _ := c.Len("tree"); got != n {
		t.Fatalf("cluster has %d records after replay", got)
	}
	// Every record routed correctly.
	f, _ := c.File("tree")
	for i := int64(0); i < n; i += 37 {
		k := keycodec.Int64(i)
		p := f.Partitioner().Partition(k, f.NumPartitions())
		recs, err := f.Lookup(ctx, p, k)
		if err != nil || len(recs) != 1 {
			t.Fatalf("record %d not found after replay: %v %v", i, recs, err)
		}
	}
}

func TestWALToleratesTornTail(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "torn.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		k := keycodec.Int64(i)
		w.Append("tree", k, lake.Record{Key: k, Data: []byte("v")})
	}
	w.Close()
	// Tear the last frame.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	c.CreateFile("tree", dfs.Btree, 2, lake.HashPartitioner{})
	applied, err := ReplayWAL(ctx, path, c)
	if err != nil {
		t.Fatalf("torn tail should not error: %v", err)
	}
	if applied != 9 {
		t.Fatalf("applied %d records, want 9 (all intact frames)", applied)
	}
}

func TestWALCorruptionMidLogFails(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	w, _ := OpenWAL(path)
	for i := int64(0); i < 10; i++ {
		k := keycodec.Int64(i)
		w.Append("tree", k, lake.Record{Key: k, Data: []byte("vvvvvvvv")})
	}
	w.Close()
	raw, _ := os.ReadFile(path)
	raw[20] ^= 0xFF // corrupt an early frame, leaving data after it
	os.WriteFile(path, raw, 0o644)

	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	c.CreateFile("tree", dfs.Btree, 2, lake.HashPartitioner{})
	if _, err := ReplayWAL(ctx, path, c); err == nil {
		t.Fatal("mid-log corruption replayed without error")
	}
}

func TestReplayIntoMissingFileFails(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "missing.wal")
	w, _ := OpenWAL(path)
	w.Append("ghost", "k", lake.Record{Key: "k"})
	w.Close()
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := ReplayWAL(ctx, path, c); err == nil {
		t.Fatal("replay into missing file should fail")
	}
}

func TestSnapshotThenWALRecovery(t *testing.T) {
	// The full durability story: snapshot, keep ingesting into the WAL,
	// crash, restore snapshot + replay WAL = no data loss.
	ctx := context.Background()
	dir := t.TempDir()
	src := buildCluster(t)
	snapPath := filepath.Join(dir, "snap.lake")
	if err := CheckpointToPath(ctx, src, nil, snapPath); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "tail.wal")
	w, _ := OpenWAL(walPath)
	f, _ := src.File("tree")
	for i := int64(1000); i < 1100; i++ {
		k := keycodec.Int64(i)
		rec := lake.Record{Key: k, Data: []byte("late")}
		if err := dfs.AppendRouted(ctx, f, k, rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Append("tree", k, rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	recovered := dfs.NewCluster(dfs.Config{Nodes: 2})
	if _, err := ReadSnapshotFromPath(ctx, snapPath, recovered); err != nil {
		t.Fatal(err)
	}
	if n, err := ReplayWAL(ctx, walPath, recovered); err != nil || n != 100 {
		t.Fatalf("replay = %d, %v", n, err)
	}
	clustersEqual(t, src, recovered)
}

func TestSnapshotToPathUnwritable(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	err := CheckpointToPath(ctx, src, nil, filepath.Join(t.TempDir(), "no", "such", "dir", "x.snap"))
	if err == nil {
		t.Fatal("snapshot into missing directory should fail")
	}
}

func TestOpenWALUnwritable(t *testing.T) {
	if _, err := OpenWAL(filepath.Join(t.TempDir(), "no", "dir", "x.wal")); err == nil {
		t.Fatal("WAL in missing directory should fail")
	}
}

func TestReplayMissingWAL(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := ReplayWAL(context.Background(), filepath.Join(t.TempDir(), "nothere.wal"), c); err == nil {
		t.Fatal("replay of missing WAL should fail")
	}
}

func TestRestoreAbsurdLengthRejected(t *testing.T) {
	// A snapshot whose first length prefix is absurd must be rejected
	// without attempting a giant allocation.
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	writeU64(&buf, 1)                    // catalog version
	writeU32(&buf, 1)                    // one file
	writeU32(&buf, uint32(maxSaneLen)+7) // absurd name length
	dst := dfs.NewCluster(dfs.Config{Nodes: 1})
	_, err := ReadSnapshot(context.Background(), &buf, dst)
	if err == nil || !strings.Contains(err.Error(), "absurd length") {
		t.Fatalf("absurd length prefix: got %v", err)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	ctx := context.Background()
	src := buildCluster(t)
	var a, b bytes.Buffer
	if err := WriteSnapshot(ctx, src, nil, &a); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(ctx, src, nil, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots of the same cluster differ (non-deterministic order?)")
	}
}
