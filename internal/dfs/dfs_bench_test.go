package dfs

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

func benchCluster(b *testing.B, rows int) (*Cluster, lake.File) {
	return benchLoad(b, NewCluster(Config{Nodes: 4}), rows)
}

// benchLoad creates an 8-partition btree file on c holding rows records
// keyed Int64(0..rows-1).
func benchLoad(b *testing.B, c *Cluster, rows int) (*Cluster, lake.File) {
	b.Helper()
	ctx := context.Background()
	f, err := c.CreateFile("bench", Btree, 8, lake.HashPartitioner{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		k := keycodec.Int64(int64(i))
		if err := AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte("payload-of-a-record")}); err != nil {
			b.Fatal(err)
		}
	}
	return c, f
}

func BenchmarkLookup(b *testing.B) {
	_, f := benchCluster(b, 100000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keycodec.Int64(int64(i % 100000))
		p := f.Partitioner().Partition(k, f.NumPartitions())
		if _, err := f.Lookup(ctx, p, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupParallel(b *testing.B) {
	_, f := benchCluster(b, 100000)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keycodec.Int64(int64(i % 100000))
			p := f.Partitioner().Partition(k, f.NumPartitions())
			if _, err := f.Lookup(ctx, p, k); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkLookupBatch is a pointer batch's hop into dfs: 64 keys of one
// partition appended onto a reused record array, on a sim cluster and on a
// front end over a Local node. Neither allocates.
func BenchmarkLookupBatch(b *testing.B) {
	front, err := NewClusterWithTransports(Config{}, []NodeTransport{Local(NewCluster(Config{Nodes: 1}))})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		c    *Cluster
	}{{"sim", NewCluster(Config{Nodes: 4})}, {"front_over_local", front}} {
		_, f := benchLoad(b, bc.c, 100000)
		var keys []lake.Key
		for i := 0; len(keys) < 64; i++ {
			if k := keycodec.Int64(int64(i)); f.Partitioner().Partition(k, f.NumPartitions()) == 0 {
				keys = append(keys, k)
			}
		}
		bf := f.(lake.BatchFile)
		ctx := context.Background()
		b.Run(bc.name, func(b *testing.B) {
			dst, ends := make([]lake.Record, 0, len(keys)), make([]int, len(keys))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = bf.AppendLookupBatch(ctx, dst[:0], 0, keys, ends); err != nil || len(dst) != len(keys) {
					b.Fatalf("batch = %d records, %v; want %d", len(dst), err, len(keys))
				}
			}
		})
	}
}

func BenchmarkScanPartition(b *testing.B) {
	_, f := benchCluster(b, 100000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := f.Scan(ctx, i%f.NumPartitions(), func(lake.Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendRouted(b *testing.B) {
	ctx := context.Background()
	c := NewCluster(Config{Nodes: 4})
	f, _ := c.CreateFile("bench", Btree, 8, lake.HashPartitioner{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keycodec.Int64(int64(i))
		if err := AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte("x")}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConcurrentReadersAndWriters hammers one file with parallel lookups,
// range reads, scans, and appends; the race detector validates the locking.
func TestConcurrentReadersAndWriters(t *testing.T) {
	ctx := context.Background()
	c := NewCluster(Config{Nodes: 2})
	f, err := c.CreateFile("hot", Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := c.BtreeFile("hot")
	for i := 0; i < 1000; i++ {
		k := keycodec.Int64(int64(i))
		AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte(fmt.Sprint(i))})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keycodec.Int64(int64(1000 + w*500 + i))
				if err := AppendRouted(ctx, f, k, lake.Record{Key: k}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keycodec.Int64(int64(i))
				p := f.Partitioner().Partition(k, f.NumPartitions())
				if _, err := f.Lookup(ctx, p, k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := bf.LookupRange(ctx, i%4, keycodec.Int64(0), keycodec.Int64(100)); err != nil {
					t.Error(err)
					return
				}
				if err := f.Scan(ctx, i%4, func(lake.Record) error { return nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := c.Len("hot"); n != 3000 {
		t.Fatalf("after concurrent writes: %d records, want 3000", n)
	}
}
