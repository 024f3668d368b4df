package dfs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

// faultFixture builds a one-node, one-partition btree file with n records
// keyed Int64(0..n-1).
func faultFixture(t *testing.T, n int) (*Cluster, lake.File, []lake.Key) {
	t.Helper()
	c := NewCluster(Config{Nodes: 1})
	f, err := c.CreateFile("t", Btree, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]lake.Key, n)
	for i := 0; i < n; i++ {
		keys[i] = keycodec.Int64(int64(i))
		rec := lake.Record{Key: keys[i], Data: []byte(fmt.Sprintf("v%d", i))}
		if err := f.Append(context.Background(), 0, rec); err != nil {
			t.Fatal(err)
		}
	}
	return c, f, keys
}

// TestTransientFaultBatchParity is the regression test for the batch-path
// fault-consumption bug: LookupBatch used to consume ONE unit of a transient
// fault's heal budget per batch admission, while the unbatched path consumes
// one per key. A fault armed with times=N must heal after N key accesses on
// both paths.
func TestTransientFaultBatchParity(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("flaky disk")

	// Unbatched reference behaviour: budget 3 fails exactly 3 Lookups.
	c, f, keys := faultFixture(t, 8)
	if err := c.SetTransientFault("t", 0, boom, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Lookup(ctx, 0, keys[0]); !errors.Is(err, boom) {
			t.Fatalf("unbatched access %d: err = %v, want fault", i, err)
		}
	}
	if _, err := f.Lookup(ctx, 0, keys[0]); err != nil {
		t.Fatalf("unbatched access 4: fault did not heal: %v", err)
	}

	// Batched: a 2-key batch must consume 2 of the 3 units. One more
	// single-key access exhausts the budget; the next succeeds.
	c2, f2, keys2 := faultFixture(t, 8)
	if err := c2.SetTransientFault("t", 0, boom, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := lake.LookupBatch(ctx, f2, 0, keys2[:2]); !errors.Is(err, boom) {
		t.Fatalf("batched access: err = %v, want fault", err)
	}
	if _, err := f2.Lookup(ctx, 0, keys2[0]); !errors.Is(err, boom) {
		t.Fatalf("third key access after 2-key batch: err = %v, want fault (1 unit left)", err)
	}
	if _, err := f2.Lookup(ctx, 0, keys2[0]); err != nil {
		t.Fatalf("fourth key access: fault did not heal: %v", err)
	}

	// A batch larger than the remaining budget exhausts it (never negative)
	// and the fault heals for the next access.
	c3, f3, keys3 := faultFixture(t, 8)
	if err := c3.SetTransientFault("t", 0, boom, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := lake.LookupBatch(ctx, f3, 0, keys3[:7]); !errors.Is(err, boom) {
		t.Fatalf("oversized batch: err = %v, want fault", err)
	}
	if got, err := lake.LookupBatch(ctx, f3, 0, keys3[:7]); err != nil {
		t.Fatalf("batch after exhaustion: %v", err)
	} else if len(got) != 7 {
		t.Fatalf("healed batch returned %d groups, want 7", len(got))
	}

	// Permanent faults (SetFault) are unaffected by batch size.
	c4, f4, keys4 := faultFixture(t, 8)
	if err := c4.SetFault("t", 0, boom); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := lake.LookupBatch(ctx, f4, 0, keys4[:5]); !errors.Is(err, boom) {
			t.Fatalf("permanent fault batch %d: err = %v", i, err)
		}
	}
	if err := c4.SetFault("t", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := lake.LookupBatch(ctx, f4, 0, keys4[:5]); err != nil {
		t.Fatalf("cleared fault: %v", err)
	}
}

// TestNodeGateAccessor checks NodeGate hands out per-node gates (nil for a
// free cost model, one per node otherwise) and bounds-checks its argument.
func TestNodeGateAccessor(t *testing.T) {
	free := NewCluster(Config{Nodes: 2})
	if g := free.NodeGate(0); g != nil {
		t.Error("free cluster returned a non-nil gate")
	}
	c := NewCluster(Config{Nodes: 2, Cost: sim.CostModel{LookupLatency: time.Nanosecond}})
	if c.NodeGate(0) == nil || c.NodeGate(1) == nil {
		t.Error("priced cluster returned a nil gate")
	}
	if c.NodeGate(0) == c.NodeGate(1) {
		t.Error("nodes share a gate")
	}
	if c.NodeGate(-1) != nil || c.NodeGate(2) != nil {
		t.Error("out-of-range node returned a gate")
	}
}
