package store

import (
	"bytes"
	"context"
	"testing"

	"lakeharbor/internal/dfs"
)

// FuzzRestore drives ReadSnapshot with arbitrary bytes. The invariants under
// fuzzing are exactly the restore contract: no panic, no runaway allocation
// (the length bounds), and all-or-nothing application — any error leaves the
// catalog completely empty.
func FuzzRestore(f *testing.F) {
	ctx := context.Background()

	// Seed corpus: a real snapshot with metadata, its truncation and a
	// bit-flip, a snapshot of an empty cluster, the bare magic, and junk.
	src := buildCluster(f)
	var full, empty bytes.Buffer
	if err := WriteSnapshot(ctx, src, testMeta(), &full); err != nil {
		f.Fatal(err)
	}
	if err := WriteSnapshot(ctx, dfs.NewCluster(dfs.Config{Nodes: 1}), nil, &empty); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add(full.Bytes()[:len(full.Bytes())/2])
	flipped := append([]byte(nil), full.Bytes()...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	f.Add(empty.Bytes())
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("not a snapshot at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cluster := dfs.NewCluster(dfs.Config{Nodes: 2})
		_, err := ReadSnapshot(ctx, bytes.NewReader(data), cluster)
		if err != nil && len(cluster.FileNames()) != 0 {
			t.Fatalf("failed restore left %d files in the catalog", len(cluster.FileNames()))
		}
	})
}
