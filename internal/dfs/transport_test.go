package dfs_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// TestSetNodeTransportRejectsNil checks a nil transport is refused on a
// front end, and that the node it was meant to replace keeps serving its
// records: every node is a transport, so there is no path to fall back to.
func TestSetNodeTransportRejectsNil(t *testing.T) {
	ctx := context.Background()
	c, f, keys := faultFixture(t, "remote", 4)
	if err := c.SetNodeTransport(0, nil); err == nil {
		t.Fatal("SetNodeTransport(0, nil) accepted a nil transport")
	}
	recs, err := f.Lookup(ctx, 0, keys[2])
	if err != nil || len(recs) != 1 || string(recs[0].Data) != "v2" {
		t.Fatalf("lookup after the rejected swap = %v, %v; want the one record v2", recs, err)
	}
	if n, err := c.Len("t"); err != nil || n != len(keys) {
		t.Fatalf("Len after the rejected swap = %d, %v; want %d", n, err, len(keys))
	}
}

// TestLocalRejectsLargerCluster checks Local hands out only the node of a
// one-node cluster: a larger cluster has no single node to serve.
func TestLocalRejectsLargerCluster(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Local accepted a two-node cluster")
		}
	}()
	dfs.Local(dfs.NewCluster(dfs.Config{Nodes: 2}))
}

// TestAppendNotificationRouting checks every cluster's append listeners
// hear each appended record exactly once: a sim cluster's from its own sim
// node, and on a front end over dfs.Local(back) both the front end's (told
// after the insert) and back's (told by back's sim node, which the append
// reached through Local).
func TestAppendNotificationRouting(t *testing.T) {
	ctx := context.Background()
	sim := dfs.NewCluster(dfs.Config{Nodes: 2})
	back := dfs.NewCluster(dfs.Config{Nodes: 1})
	front, err := dfs.NewClusterWithTransports(dfs.Config{}, []dfs.NodeTransport{dfs.Local(back)})
	if err != nil {
		t.Fatal(err)
	}
	heard := map[string]map[string]int{}
	for name, c := range map[string]*dfs.Cluster{"sim": sim, "back": back, "front": front} {
		seen := map[string]int{}
		heard[name] = seen
		c.AddAppendListener(func(_ string, _ int, r lake.Record) { seen[r.Key]++ })
	}
	const n = 20
	for _, c := range []*dfs.Cluster{sim, front} {
		f, err := c.CreateFile("t", dfs.Btree, 3, lake.HashPartitioner{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := keycodec.Int64(int64(i))
			if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, seen := range heard {
		if len(seen) != n {
			t.Errorf("%s: listener heard %d distinct records, want %d", name, len(seen), n)
		}
		for k, times := range seen {
			if times != 1 {
				t.Errorf("%s: record %x heard %d times, want once", name, k, times)
			}
		}
	}
}

// TestSimScanWithBarrierIsExact checks a sim cluster's ScanWithBarrier holds
// the partition across its barrier and its scan: an append the barrier
// starts waits until the scan is over, so the scan never delivers it. The
// barrier gives the append 20 ms to finish early, which only a scan that
// released the partition lets it do.
func TestSimScanWithBarrierIsExact(t *testing.T) {
	ctx := context.Background()
	c, f, keys := faultFixture(t, "sim", 4)
	late := lake.Record{Key: keycodec.Int64(99), Data: []byte("late")}
	var appendErr error
	done := make(chan struct{})
	delivered := 0
	err := lake.ScanWithBarrier(ctx, f, 0, func() {
		go func() {
			appendErr = f.Append(ctx, 0, late)
			close(done)
		}()
		select {
		case <-done:
			t.Error("an append the barrier started finished before the scan")
		case <-time.After(20 * time.Millisecond):
		}
	}, func(r lake.Record) error {
		if r.Key == late.Key {
			t.Error("the scan delivered an append made after its barrier")
		}
		delivered++
		return nil
	})
	if err != nil || delivered != len(keys) {
		t.Fatalf("scan: err = %v, delivered %d; want nil, %d", err, delivered, len(keys))
	}
	<-done
	if n, err := c.Len("t"); appendErr != nil || err != nil || n != len(keys)+1 {
		t.Fatalf("after the scan: append err = %v, Len = %d, %v; want nil, %d", appendErr, n, err, len(keys)+1)
	}
}

// TestHandleAfterDrop checks a handle taken before DropFile answers every
// later access with lake.ErrNoSuchFile, on the sim and on a front end: no
// node serves a dropped file's records.
func TestHandleAfterDrop(t *testing.T) {
	ctx := context.Background()
	for _, plane := range planes {
		c, f, keys := faultFixture(t, plane, 4)
		c.DropFile("t")
		if _, err := f.Lookup(ctx, 0, keys[0]); !errors.Is(err, lake.ErrNoSuchFile) {
			t.Errorf("%s: lookup after drop: err = %v, want ErrNoSuchFile", plane, err)
		}
		if _, err := lake.LookupBatch(ctx, f, 0, keys); !errors.Is(err, lake.ErrNoSuchFile) {
			t.Errorf("%s: batch after drop: err = %v, want ErrNoSuchFile", plane, err)
		}
		if err := f.Scan(ctx, 0, func(lake.Record) error { return nil }); !errors.Is(err, lake.ErrNoSuchFile) {
			t.Errorf("%s: scan after drop: err = %v, want ErrNoSuchFile", plane, err)
		}
		err := f.Append(ctx, 0, lake.Record{Key: keys[0], Data: []byte("late")})
		if !errors.Is(err, lake.ErrNoSuchFile) {
			t.Errorf("%s: append after drop: err = %v, want ErrNoSuchFile", plane, err)
		}
	}
}
