package dfs

import (
	"context"
	"fmt"
	"testing"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// TestLookupBatchAccounting: a batched lookup of n keys is ONE gate
// admission (Lookups +1, BatchLookups +1, BatchKeys +n), returns exactly
// what per-key lookups return, and a remote batch is one remote fetch, not
// n.
func TestLookupBatchAccounting(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(2)
	f, err := c.CreateFile("orders", Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(lake.BatchFile); !ok {
		t.Fatal("dfs file does not implement lake.BatchFile")
	}

	// Collect keys routed to partition 0, with a duplicate-keyed record.
	var keys []lake.Key
	for i := int64(0); len(keys) < 6; i++ {
		k := keycodec.Int64(i)
		if f.Partitioner().Partition(k, 4) != 0 {
			continue
		}
		if err := AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	dup := lake.Record{Key: keys[0], Data: []byte("dup")}
	if err := AppendRouted(ctx, f, keys[0], dup); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, "\x00missing")

	owner := c.OwnerNode(0)
	before := c.TotalMetrics()
	got, err := lake.LookupBatch(c.Bind(ctx, owner), f, 0, keys)
	if err != nil {
		t.Fatal(err)
	}
	delta := c.TotalMetrics().Sub(before)
	if delta.Lookups != 1 || delta.BatchLookups != 1 {
		t.Errorf("admissions = %d (batched %d), want 1/1", delta.Lookups, delta.BatchLookups)
	}
	if delta.BatchKeys != int64(len(keys)) {
		t.Errorf("BatchKeys = %d, want %d", delta.BatchKeys, len(keys))
	}
	if delta.RemoteFetches != 0 {
		t.Errorf("local batch counted %d remote fetches", delta.RemoteFetches)
	}
	wantRead := int64(0)
	for i, k := range keys {
		single, err := f.Lookup(c.Bind(ctx, owner), 0, k)
		if err != nil {
			t.Fatal(err)
		}
		wantRead += int64(len(single))
		if len(got[i]) != len(single) {
			t.Fatalf("key %d: batch %d records, Lookup %d", i, len(got[i]), len(single))
		}
		for j := range single {
			if string(got[i][j].Data) != string(single[j].Data) {
				t.Fatalf("key %d record %d: %q vs %q", i, j, got[i][j].Data, single[j].Data)
			}
		}
	}
	if delta.RecordsRead != wantRead {
		t.Errorf("RecordsRead = %d, want %d", delta.RecordsRead, wantRead)
	}
	if delta.BytesRead == 0 {
		t.Error("BytesRead not accounted")
	}

	// Remote: issued from the non-owner node, the whole batch is one fetch.
	before = c.TotalMetrics()
	if _, err := lake.LookupBatch(c.Bind(ctx, 1-owner), f, 0, keys); err != nil {
		t.Fatal(err)
	}
	delta = c.TotalMetrics().Sub(before)
	if delta.RemoteFetches != 1 {
		t.Errorf("remote batch counted %d remote fetches, want 1", delta.RemoteFetches)
	}

	// Empty batch: no admission at all.
	before = c.TotalMetrics()
	if out, err := lake.LookupBatch(ctx, f, 0, nil); err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	if d := c.TotalMetrics().Sub(before); d.Lookups != 0 {
		t.Errorf("empty batch admitted %d lookups", d.Lookups)
	}
}

func TestLookupBatchBadPartition(t *testing.T) {
	c := newTestCluster(1)
	f, err := c.CreateFile("x", Btree, 2, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lake.LookupBatch(context.Background(), f, 9, []lake.Key{"k"}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}
