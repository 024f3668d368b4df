package dfs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

func newTestCluster(nodes int) *Cluster {
	return NewCluster(Config{Nodes: nodes})
}

func TestCreateAndCatalog(t *testing.T) {
	c := newTestCluster(3)
	f, err := c.CreateFile("part", Btree, 6, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "part" || f.NumPartitions() != 6 {
		t.Errorf("file meta wrong: %s/%d", f.Name(), f.NumPartitions())
	}
	got, err := c.File("part")
	if err != nil || got.Name() != "part" {
		t.Errorf("catalog lookup failed: %v", err)
	}
	if _, err := c.File("nope"); !errors.Is(err, lake.ErrNoSuchFile) {
		t.Errorf("missing file error = %v", err)
	}
	if _, err := c.CreateFile("part", Heap, 1, lake.HashPartitioner{}); err == nil {
		t.Error("duplicate CreateFile should fail")
	}
	if _, err := c.CreateFile("bad", Heap, 0, lake.HashPartitioner{}); err == nil {
		t.Error("CreateFile with 0 partitions should fail")
	}
	if _, err := c.CreateFile("bad2", Heap, 1, nil); err == nil {
		t.Error("CreateFile with nil partitioner should fail")
	}
	names := c.FileNames()
	if len(names) != 1 || names[0] != "part" {
		t.Errorf("FileNames = %v", names)
	}
}

func TestBtreeFileAccessor(t *testing.T) {
	c := newTestCluster(1)
	if _, err := c.CreateFile("h", Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile("b", Btree, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BtreeFile("h"); err == nil {
		t.Error("heap file must not be returned as BtreeFile")
	}
	if _, err := c.BtreeFile("b"); err != nil {
		t.Errorf("btree file accessor failed: %v", err)
	}
	if _, err := c.BtreeFile("missing"); err == nil {
		t.Error("missing BtreeFile should fail")
	}
}

func TestAppendLookupScan(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(2)
	f, _ := c.CreateFile("orders", Btree, 4, lake.HashPartitioner{})
	for i := int64(0); i < 100; i++ {
		k := keycodec.Int64(i)
		if err := AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte(fmt.Sprintf("order-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Every record is findable through its partitioner route.
	for i := int64(0); i < 100; i++ {
		k := keycodec.Int64(i)
		p := f.Partitioner().Partition(k, f.NumPartitions())
		recs, err := f.Lookup(ctx, p, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || string(recs[0].Data) != fmt.Sprintf("order-%d", i) {
			t.Fatalf("lookup %d = %v", i, recs)
		}
	}
	// Scanning all partitions yields all records exactly once.
	seen := map[string]bool{}
	for p := 0; p < f.NumPartitions(); p++ {
		err := f.Scan(ctx, p, func(r lake.Record) error {
			if seen[r.Key] {
				return fmt.Errorf("duplicate key %x", r.Key)
			}
			seen[r.Key] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 100 {
		t.Errorf("scan found %d records, want 100", len(seen))
	}
	if n, err := c.Len("orders"); err != nil || n != 100 {
		t.Errorf("Len = %d, %v", n, err)
	}
}

func TestLookupMissReturnsEmpty(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(1)
	f, _ := c.CreateFile("f", Heap, 2, lake.HashPartitioner{})
	recs, err := f.Lookup(ctx, 0, keycodec.Int64(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("miss returned %v", recs)
	}
}

func TestLookupRange(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(1)
	f, _ := c.CreateFile("idx", Btree, 1, lake.HashPartitioner{})
	for i := int64(0); i < 50; i++ {
		f.Append(ctx, 0, lake.Record{Key: keycodec.Int64(i), Data: nil})
	}
	bf, _ := c.BtreeFile("idx")
	recs, err := bf.LookupRange(ctx, 0, keycodec.Int64(10), keycodec.Int64(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Errorf("range returned %d records, want 11", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			t.Error("range results out of order")
		}
	}
}

func TestRangeOnHeapFileFails(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(1)
	c.CreateFile("h", Heap, 1, lake.HashPartitioner{})
	f, _ := c.File("h")
	if _, err := f.(lake.BtreeFile).LookupRange(ctx, 0, "a", "z"); err == nil {
		t.Error("LookupRange on heap file should fail")
	}
}

func TestDuplicateKeys(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(1)
	f, _ := c.CreateFile("idx", Btree, 1, lake.HashPartitioner{})
	for i := 0; i < 5; i++ {
		f.Append(ctx, 0, lake.Record{Key: "dup", Data: []byte{byte(i)}})
	}
	recs, err := f.Lookup(ctx, 0, "dup")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("duplicate lookup returned %d records, want 5", len(recs))
	}
}

func TestPartitionOutOfRange(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(1)
	f, _ := c.CreateFile("f", Btree, 2, lake.HashPartitioner{})
	if _, err := f.Lookup(ctx, 5, "k"); !errors.Is(err, lake.ErrNoSuchPartition) {
		t.Errorf("out-of-range lookup error = %v", err)
	}
	if err := f.Scan(ctx, -1, func(lake.Record) error { return nil }); !errors.Is(err, lake.ErrNoSuchPartition) {
		t.Errorf("out-of-range scan error = %v", err)
	}
	if err := f.Append(ctx, 9, lake.Record{}); !errors.Is(err, lake.ErrNoSuchPartition) {
		t.Errorf("out-of-range append error = %v", err)
	}
}

// TestMetricsAccounting: reads and scans are counted exactly on both planes —
// by a cluster's own sim node, and by the front end of a cluster whose node
// is another transport.
func TestMetricsAccounting(t *testing.T) {
	ctx := context.Background()
	front, err := NewClusterWithTransports(Config{}, []NodeTransport{Local(newTestCluster(1))})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cluster{newTestCluster(1), front} {
		f, err := c.CreateFile("f", Btree, 1, lake.HashPartitioner{})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 10; i++ {
			f.Append(ctx, 0, lake.Record{Key: keycodec.Int64(i), Data: []byte("xx")})
		}
		before := c.TotalMetrics()
		f.Lookup(ctx, 0, keycodec.Int64(3))
		f.Scan(ctx, 0, func(lake.Record) error { return nil })
		d := c.TotalMetrics().Sub(before)
		if d.Lookups != 1 {
			t.Errorf("lookups = %d, want 1", d.Lookups)
		}
		if d.RecordsRead != 1 {
			t.Errorf("records read = %d, want 1", d.RecordsRead)
		}
		if d.RecordsScanned != 10 {
			t.Errorf("records scanned = %d, want 10", d.RecordsScanned)
		}
		if d.BytesRead != 22 { // 2 bytes lookup + 20 bytes scan
			t.Errorf("bytes read = %d, want 22", d.BytesRead)
		}
		// A scan its callback stops counts the records it delivered.
		before = c.TotalMetrics()
		stop := errors.New("stop")
		n := 0
		if err := f.Scan(ctx, 0, func(lake.Record) error {
			if n++; n == 4 {
				return stop
			}
			return nil
		}); !errors.Is(err, stop) {
			t.Fatalf("stopped scan: %v", err)
		}
		if d := c.TotalMetrics().Sub(before); d.RecordsScanned != 4 || d.BytesRead != 8 {
			t.Errorf("stopped scan counted %d records, %d bytes; want 4, 8", d.RecordsScanned, d.BytesRead)
		}
	}
}

func TestRemoteFetchAccounting(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(4)
	f, _ := c.CreateFile("f", Btree, 4, lake.HashPartitioner{})
	f.Append(ctx, 2, lake.Record{Key: "k", Data: nil})
	owner := c.OwnerNode(2)

	before := c.TotalMetrics()
	f.Lookup(WithCaller(ctx, owner), 2, "k") // local
	if d := c.TotalMetrics().Sub(before); d.RemoteFetches != 0 {
		t.Errorf("local access counted %d remote fetches", d.RemoteFetches)
	}
	before = c.TotalMetrics()
	f.Lookup(WithCaller(ctx, (owner+1)%4), 2, "k") // remote
	if d := c.TotalMetrics().Sub(before); d.RemoteFetches != 1 {
		t.Errorf("remote access counted %d remote fetches, want 1", d.RemoteFetches)
	}
	// External (no caller) counts as local.
	before = c.TotalMetrics()
	f.Lookup(ctx, 2, "k")
	if d := c.TotalMetrics().Sub(before); d.RemoteFetches != 0 {
		t.Errorf("external access counted %d remote fetches", d.RemoteFetches)
	}
}

func TestCallerNodeDefault(t *testing.T) {
	if CallerNode(context.Background()) != -1 {
		t.Error("default caller should be -1")
	}
	if CallerNode(WithCaller(context.Background(), 7)) != 7 {
		t.Error("WithCaller not round-tripping")
	}
}

func TestFaultInjection(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(1)
	f, _ := c.CreateFile("f", Btree, 2, lake.HashPartitioner{})
	f.Append(ctx, 0, lake.Record{Key: "k", Data: nil})
	boom := errors.New("disk on fire")
	var seen []Op
	c.InjectFaults(func(a Access) (time.Duration, error) {
		if a.File != "f" || a.Partition != 0 {
			return 0, nil
		}
		seen = append(seen, a.Op)
		return 0, boom
	})
	if _, err := f.Lookup(ctx, 0, "k"); !errors.Is(err, boom) {
		t.Errorf("lookup fault = %v", err)
	}
	if _, err := f.(lake.BtreeFile).LookupRange(ctx, 0, "a", "z"); !errors.Is(err, boom) {
		t.Errorf("range fault = %v", err)
	}
	if err := f.Scan(ctx, 0, func(lake.Record) error { return nil }); !errors.Is(err, boom) {
		t.Errorf("scan fault = %v", err)
	}
	if err := f.Append(ctx, 0, lake.Record{}); !errors.Is(err, boom) {
		t.Errorf("append fault = %v", err)
	}
	if want := []Op{OpLookup, OpRange, OpScan, OpAppend}; !slices.Equal(seen, want) {
		t.Errorf("hook saw ops %v, want %v", seen, want)
	}
	// Partition 1 unaffected.
	if _, err := f.Lookup(ctx, 1, "k"); err != nil {
		t.Errorf("healthy partition failed: %v", err)
	}
	// Clearing restores service.
	c.InjectFaults(nil)
	if _, err := f.Lookup(ctx, 0, "k"); err != nil {
		t.Errorf("cleared fault still failing: %v", err)
	}
}

func TestScanStopsOnCallbackError(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(1)
	f, _ := c.CreateFile("f", Btree, 1, lake.HashPartitioner{})
	for i := int64(0); i < 100; i++ {
		f.Append(ctx, 0, lake.Record{Key: keycodec.Int64(i)})
	}
	stop := errors.New("stop")
	n := 0
	err := f.Scan(ctx, 0, func(lake.Record) error {
		n++
		if n == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Errorf("scan error = %v", err)
	}
	if n != 10 {
		t.Errorf("scan visited %d records after error, want 10", n)
	}
}

func TestScanHonorsContextCancel(t *testing.T) {
	c := newTestCluster(1)
	f, _ := c.CreateFile("f", Btree, 1, lake.HashPartitioner{})
	for i := int64(0); i < 100; i++ {
		f.Append(context.Background(), 0, lake.Record{Key: keycodec.Int64(i)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := f.Scan(ctx, 0, func(lake.Record) error {
		n++
		if n == 5 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Error("cancelled scan returned nil error")
	}
	if n > 6 {
		t.Errorf("scan continued %d records after cancel", n)
	}
}

func TestCostModelSlowsLookups(t *testing.T) {
	ctx := context.Background()
	c := NewCluster(Config{Nodes: 1, Cost: sim.CostModel{LookupLatency: 15 * time.Millisecond}})
	f, _ := c.CreateFile("f", Btree, 1, lake.HashPartitioner{})
	f.Append(ctx, 0, lake.Record{Key: "k"})
	start := time.Now()
	f.Lookup(ctx, 0, "k")
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("costed lookup took %v, want >= 15ms", d)
	}
}

func TestOwnerNodeRoundRobin(t *testing.T) {
	c := newTestCluster(3)
	for i := 0; i < 9; i++ {
		if got := c.OwnerNode(i); got != i%3 {
			t.Errorf("OwnerNode(%d) = %d, want %d", i, got, i%3)
		}
	}
}

// TestPropertyRoutedRecordsAlwaysFindable: whatever keys are loaded through
// AppendRouted can always be found back through the same partitioner route,
// for arbitrary partition counts and node counts.
func TestPropertyRoutedRecordsAlwaysFindable(t *testing.T) {
	f := func(keys []int64, nodes, parts uint8) bool {
		ctx := context.Background()
		c := newTestCluster(int(nodes%8) + 1)
		nParts := int(parts%16) + 1
		file, err := c.CreateFile("f", Btree, nParts, lake.HashPartitioner{})
		if err != nil {
			return false
		}
		for _, k := range keys {
			ek := keycodec.Int64(k)
			if err := AppendRouted(ctx, file, ek, lake.Record{Key: ek}); err != nil {
				return false
			}
		}
		for _, k := range keys {
			ek := keycodec.Int64(k)
			p := file.Partitioner().Partition(ek, nParts)
			recs, err := file.Lookup(ctx, p, ek)
			if err != nil || len(recs) == 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDropFile(t *testing.T) {
	c := newTestCluster(1)
	c.CreateFile("f", Heap, 1, lake.HashPartitioner{})
	c.DropFile("f")
	if _, err := c.File("f"); err == nil {
		t.Error("dropped file still in catalog")
	}
	if _, err := c.CreateFile("f", Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Errorf("recreate after drop failed: %v", err)
	}
}

func TestLenMissingFile(t *testing.T) {
	c := newTestCluster(1)
	if _, err := c.Len("missing"); err == nil {
		t.Error("Len on missing file should fail")
	}
}
