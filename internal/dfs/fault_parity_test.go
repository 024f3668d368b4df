package dfs_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"lakeharbor/internal/chaos"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

// planes names the two kinds of cluster a fault hook must behave the same
// on: the in-process sim, and a front end over node transports.
var planes = []string{"sim", "remote"}

// faultFixture builds a one-node, one-partition btree file with n records
// keyed Int64(0..n-1) on the named plane. It returns the cluster the
// faults are armed on: at remote, the front end over a dfs.Local node.
func faultFixture(t *testing.T, plane string, n int) (*dfs.Cluster, lake.File, []lake.Key) {
	t.Helper()
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	if plane == "remote" {
		var err error
		if c, err = dfs.NewClusterWithTransports(dfs.Config{}, []dfs.NodeTransport{dfs.Local(c)}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := c.CreateFile("t", dfs.Btree, 1, lake.HashPartitioner{})
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

// TestTransientFaultBatchParity pins per-key heal consumption on both
// planes: a fault armed with a heal budget of N fails N key accesses
// whether they come one by one or in batches — a batch consumes one unit
// per key, and a batch larger than what is left exhausts the budget
// without driving it negative. The sim and the remote front end must see
// the identical sequence of failures.
func TestTransientFaultBatchParity(t *testing.T) {
	ctx := context.Background()
	const fail, ok = "fail", "ok"
	var seen [][]string
	for _, plane := range planes {
		var got []string
		// Each step runs on a fresh fixture armed with a 3-unit fault.
		for _, steps := range [][]int{
			{1, 1, 1, 1}, // unbatched: 3 lookups fail, the 4th heals
			{2, 1, 1},    // a 2-key batch consumes 2 of the 3 units
			{7, 7},       // an oversized batch exhausts the budget
		} {
			c, f, keys := faultFixture(t, plane, 8)
			armed, err := (&chaos.Schedule{Faults: []chaos.Fault{{File: "t", Partition: 0, Heals: 3}}}).Arm(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range steps {
				var err error
				if n == 1 {
					_, err = f.Lookup(ctx, 0, keys[0])
				} else {
					var groups [][]lake.Record
					groups, err = lake.LookupBatch(ctx, f, 0, keys[:n])
					if err == nil && len(groups) != n {
						t.Fatalf("%s: healed batch returned %d groups, want %d", plane, len(groups), n)
					}
				}
				switch {
				case err == nil:
					got = append(got, ok)
				case errors.Is(err, chaos.ErrInjected):
					got = append(got, fail)
				default:
					t.Fatalf("%s: unexpected error %v", plane, err)
				}
			}
			armed.Disarm()
		}
		want := []string{fail, fail, fail, ok, fail, fail, ok, fail, ok}
		if !slices.Equal(got, want) {
			t.Errorf("%s: outcomes %v, want %v", plane, got, want)
		}
		seen = append(seen, got)
	}
	if !slices.Equal(seen[0], seen[1]) {
		t.Errorf("planes consumed heal budgets differently: sim %v, remote %v", seen[0], seen[1])
	}

	// A permanent fault (a hook that always fails) is unaffected by batch
	// size, and removing the hook restores service.
	boom := errors.New("dead disk")
	for _, plane := range planes {
		c, f, keys := faultFixture(t, plane, 8)
		c.InjectFaults(func(dfs.Access) (time.Duration, error) { return 0, boom })
		for i := 0; i < 3; i++ {
			if _, err := lake.LookupBatch(ctx, f, 0, keys[:5]); !errors.Is(err, boom) {
				t.Fatalf("%s: permanent fault batch %d: err = %v", plane, i, err)
			}
		}
		c.InjectFaults(nil)
		if _, err := lake.LookupBatch(ctx, f, 0, keys[:5]); err != nil {
			t.Fatalf("%s: cleared fault: %v", plane, err)
		}
	}
}

// TestFaultedBarrierScanSkipsBarrier pins the ordering an online structure
// build depends on: a ScanWithBarrier the fault hook fails never runs its
// barrier, on the sim or on a remote front end, so the hand-over it marks
// cannot happen for a scan that delivered nothing. A healthy scan runs it
// exactly once.
func TestFaultedBarrierScanSkipsBarrier(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("flaky disk")
	for _, plane := range planes {
		c, f, keys := faultFixture(t, plane, 4)
		c.InjectFaults(func(a dfs.Access) (time.Duration, error) {
			if a.Op == dfs.OpScan {
				return 0, boom
			}
			return 0, nil
		})
		barriers := 0
		err := lake.ScanWithBarrier(ctx, f, 0, func() { barriers++ }, func(lake.Record) error { return nil })
		if !errors.Is(err, boom) || barriers != 0 {
			t.Errorf("%s: faulted scan: err = %v, barrier ran %d times; want the fault and no barrier", plane, err, barriers)
		}
		c.InjectFaults(nil)
		delivered := 0
		err = lake.ScanWithBarrier(ctx, f, 0, func() { barriers++ }, func(lake.Record) error {
			if barriers != 1 {
				t.Errorf("%s: record delivered with the barrier run %d times", plane, barriers)
			}
			delivered++
			return nil
		})
		if err != nil || barriers != 1 || delivered != len(keys) {
			t.Errorf("%s: healthy scan: err = %v, barriers %d, delivered %d; want nil, 1, %d", plane, err, barriers, delivered, len(keys))
		}
	}
}

// TestNodeGateAccessor checks NodeGate hands out per-node gates (nil for a
// free cost model, one per node otherwise) and bounds-checks its argument.
func TestNodeGateAccessor(t *testing.T) {
	free := dfs.NewCluster(dfs.Config{Nodes: 2})
	if g := free.NodeGate(0); g != nil {
		t.Error("free cluster returned a non-nil gate")
	}
	c := dfs.NewCluster(dfs.Config{Nodes: 2, Cost: sim.CostModel{LookupLatency: time.Nanosecond}})
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
