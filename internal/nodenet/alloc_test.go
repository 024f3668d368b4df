package nodenet

// Allocation budgets and frame-memory ownership: a frame's payload is
// allocated once and the decoded message aliases it, so the budgets hold
// only while nothing on the path copies a key or a record, and the
// ownership tests hold only while nobody reuses a payload.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// skipUnderRace skips an allocation budget in a -race build, where sync.Pool
// drops a share of what is put back and the instrumentation allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
		}
	}
}

// TestAllocBudgets: testing.AllocsPerRun counts every goroutine's mallocs,
// so a figure here is client + server + the in-process backend.
func TestAllocBudgets(t *testing.T) {
	skipUnderRace(t)
	const keys = 64
	addr, cluster, _ := startNode(t)
	seedKeys(t, cluster, keys)
	c := Dial(addr, Options{HedgeAfter: -1}, nil)
	defer c.Close()
	ctx := context.Background()
	batch := make([]lake.Key, keys)
	for i := range batch {
		batch[i] = fmt.Sprintf("k%d", i)
	}
	point := func() {
		if recs, err := c.Lookup(ctx, "f", 0, "k7"); err != nil || len(recs) != 1 {
			t.Fatalf("lookup: %v %v", recs, err)
		}
	}
	many := func() {
		if groups, err := c.LookupBatch(ctx, "f", 0, batch); err != nil || len(groups) != keys {
			t.Fatalf("batch: %d groups, %v", len(groups), err)
		}
	}
	for i := 0; i < 64; i++ { // dial, grow the worker's stack, fill the pools
		point()
		many()
	}
	if got := testing.AllocsPerRun(200, point); got > 12 {
		t.Errorf("point Lookup round trip: %.1f allocations, budget 12", got)
	} else {
		t.Logf("point Lookup round trip: %.1f allocations", got)
	}
	if got := testing.AllocsPerRun(200, many); got > 24 {
		t.Errorf("64-key LookupBatch round trip: %.1f allocations, budget 24", got)
	} else {
		t.Logf("64-key LookupBatch round trip: %.1f allocations", got)
	}
}

// TestCodecAllocBudget holds BenchmarkFrameEncodeDecode's loop body — a
// 64-key request and its 64-group reply, encoded and decoded — to 40
// allocations.
func TestCodecAllocBudget(t *testing.T) {
	skipUnderRace(t)
	req, resp := benchFrames(TraceContext{Job: "q5-asia-0007", Tenant: "bench", Stage: 2, Attempt: 1})
	got := testing.AllocsPerRun(200, func() {
		if _, err := decodeRequest(req.encode()); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeResponse(resp.encode(req.Op), req.Op); err != nil {
			t.Fatal(err)
		}
	})
	if got > 40 {
		t.Errorf("64-key encode+decode: %.1f allocations, budget 40", got)
	}
}

// TestDecodedReplyOutlivesLaterFrames: records decoded from one reply alias
// its frame, so they must read the same after a thousand more replies have
// come through the same connection's reader and the collector has run.
func TestDecodedReplyOutlivesLaterFrames(t *testing.T) {
	const keys = 16
	addr, cluster, _ := startNode(t)
	seedKeys(t, cluster, keys)
	stats := NewStats()
	c := Dial(addr, Options{HedgeAfter: -1}, stats)
	defer c.Close()
	ctx := context.Background()

	batch := make([]lake.Key, keys)
	for i := range batch {
		batch[i] = fmt.Sprintf("k%d", i)
	}
	kept, err := c.LookupBatch(ctx, "f", 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.Lookup(ctx, "f", 0, batch[i%keys]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if d := stats.dials.Load(); d != 1 {
		t.Fatalf("%d dials: the later replies did not share the kept one's connection", d)
	}
	for i, g := range kept {
		if len(g) != 1 || g[0].Key != batch[i] || !bytes.Equal(g[0].Data, []byte{byte(i)}) {
			t.Fatalf("group %d changed under later frames: %+v", i, g)
		}
	}
}

// TestAppendDoesNotAliasTheFrame: what an append stores must not share
// memory with the request frame it arrived in. The server is driven by hand
// so the test owns the frame and can overwrite it after the reply.
func TestAppendDoesNotAliasTheFrame(t *testing.T) {
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := cluster.CreateFile("f", dfs.Btree, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(dfs.Local(cluster), discard)
	want := []lake.Record{{Key: "alpha", Data: []byte("first")}, {Key: "beta", Data: []byte("second")}}
	frame := (&request{Op: opAppend, ReqID: 1, File: "f", Recs: want}).encode()
	req, err := decodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if resp := srv.execute(req); resp.Status != statusOK {
		t.Fatalf("append: status %d %s", resp.Status, resp.Msg)
	}
	for i := range frame {
		frame[i] = 0xee
	}
	runtime.GC()
	f, err := cluster.File("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		got, err := f.Lookup(context.Background(), 0, w.Key)
		if err != nil || len(got) != 1 || got[0].Key != w.Key || !bytes.Equal(got[0].Data, w.Data) {
			t.Fatalf("stored record %q after the frame was overwritten: %+v, %v", w.Key, got, err)
		}
	}
}

// TestPooledTimerIsNeverStale: a call's timer is reused by the next call —
// any client's — so a fire that lost the race with its reply must not be read
// by that next call as its own timeout. One client's request timeout sits at
// the round-trip time, where fires and replies collide (its errors are the
// point); the other's is a minute, and none of its calls may time out.
func TestPooledTimerIsNeverStale(t *testing.T) {
	addr, cluster, _ := startNode(t)
	seedKeys(t, cluster, 1)
	hasty := Dial(addr, Options{HedgeAfter: -1, RequestTimeout: 30 * time.Microsecond}, nil)
	defer hasty.Close()
	patient := Dial(addr, Options{HedgeAfter: -1, RequestTimeout: time.Minute}, nil)
	defer patient.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				hasty.Lookup(context.Background(), "f", 0, "k0") //nolint:errcheck
				if _, err := patient.Lookup(context.Background(), "f", 0, "k0"); err != nil {
					t.Errorf("lookup %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
