package sim_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

// gatedFile returns a one-node cluster charging lookups lat through its
// node's gate, and a one-partition file on it holding key "k".
func gatedFile(t *testing.T, lat time.Duration) (*dfs.Cluster, lake.File) {
	t.Helper()
	c := dfs.NewCluster(dfs.Config{Nodes: 1, Cost: sim.CostModel{LookupLatency: lat}})
	if c.NodeGate(0) == nil {
		t.Fatal("non-zero model produced a nil gate")
	}
	f, err := c.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(context.Background(), 0, lake.Record{Key: "k", Data: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	return c, f
}

// TestDelayHookOverridesLatency checks a delay hook installed on a gated
// cluster runs once per I/O with the access the gate serves, that a zero
// wait leaves the gate's modeled latency in force, and that clearing the
// hook stops it being consulted.
func TestDelayHookOverridesLatency(t *testing.T) {
	const lat = 10 * time.Millisecond
	c, f := gatedFile(t, lat)
	var calls atomic.Int64
	c.InjectFaults(func(a dfs.Access) (time.Duration, error) {
		calls.Add(1)
		if a.Node != 0 || a.File != "f" || a.Partition != 0 || a.Op != dfs.OpLookup || a.Keys != 1 {
			t.Errorf("hook saw %+v, want node 0's lookup of f/0", a)
		}
		return 0, nil
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		start := time.Now()
		if recs, err := f.Lookup(ctx, 0, "k"); err != nil || len(recs) != 1 {
			t.Fatalf("lookup %d = %v, %v; want the one record", i, recs, err)
		}
		if took := time.Since(start); took < lat {
			t.Errorf("lookup %d took %v, want the gate's %v", i, took, lat)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("hook ran %d times, want 3", n)
	}
	c.InjectFaults(nil)
	if _, err := f.Lookup(ctx, 0, "k"); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("cleared hook still ran (calls = %d)", n)
	}
}

// TestDelayHookCanInflate checks a hook-added spike actually delays the I/O
// on a gated node (the chaos scheduler's latency-spike mechanism).
func TestDelayHookCanInflate(t *testing.T) {
	const spike = 20 * time.Millisecond
	c, f := gatedFile(t, time.Nanosecond)
	c.InjectFaults(func(dfs.Access) (time.Duration, error) { return spike, nil })
	start := time.Now()
	if _, err := f.Lookup(context.Background(), 0, "k"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < spike {
		t.Errorf("spiked lookup took %v, want >= %v", took, spike)
	}
}
