package nodenet

// Allocation budgets and frame-memory ownership. A reply's frame is
// allocated once and the records decoded from it alias it and own it; the
// server lends its request frames, requests, key lists and record arrays and
// takes them back once a reply is written. So the budgets hold only while
// nothing on the path copies a key or a record or forgets to lend, and the
// ownership tests hold only while nothing reuses a reply's frame and nothing
// keeps a request's past its reply.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
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
	// Measured: a point lookup 2 (the reply frame and the record array it
	// decodes onto), a 64-key batch 4 (the frame, the array, its ends and
	// the groups cut from it); the server lends all of its share. One of
	// headroom each for a runtime allocation on another goroutine.
	if got := testing.AllocsPerRun(200, point); got > 3 {
		t.Errorf("point Lookup round trip: %.1f allocations, budget 3", got)
	} else {
		t.Logf("point Lookup round trip: %.1f allocations", got)
	}
	if got := testing.AllocsPerRun(200, many); got > 5 {
		t.Errorf("64-key LookupBatch round trip: %.1f allocations, budget 5", got)
	} else {
		t.Logf("64-key LookupBatch round trip: %.1f allocations", got)
	}
}

// TestRemoteBatchAllocationBudget: a task's 64-key batch on a transport node
// — dfs.file.AppendLookupBatch through a NewClusterWithTransports front end
// over one loopback node — decodes onto the task's record array and ends,
// so its only allocation is the reply frame the records alias.
func TestRemoteBatchAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	const keys = 64
	addr, _, _ := startNode(t)
	c := Dial(addr, Options{HedgeAfter: -1}, nil)
	defer c.Close()
	front, err := dfs.NewClusterWithTransports(dfs.Config{}, []dfs.NodeTransport{c})
	if err != nil {
		t.Fatal(err)
	}
	seedKeys(t, front, keys)
	f, err := front.File("f")
	if err != nil {
		t.Fatal(err)
	}
	bf := f.(lake.BatchFile)
	ctx := context.Background()
	batch := make([]lake.Key, keys)
	for i := range batch {
		batch[i] = fmt.Sprintf("k%d", i)
	}
	dst, ends := make([]lake.Record, 0, keys), make([]int, keys)
	run := func() {
		out, err := bf.AppendLookupBatch(ctx, dst[:0], 0, batch, ends)
		if err != nil || len(out) != keys || ends[keys-1] != keys {
			t.Fatalf("batch: %d records, %v", len(out), err)
		}
	}
	for i := 0; i < 64; i++ { // dial, grow the worker's stack, fill the pools
		run()
	}
	// Measured 1; one of headroom as in TestAllocBudgets.
	if got := testing.AllocsPerRun(200, run); got > 2 {
		t.Errorf("64-key remote AppendLookupBatch: %.1f allocations, budget 2", got)
	} else {
		t.Logf("64-key remote AppendLookupBatch: %.1f allocations", got)
	}
}

// TestCodecAllocBudget holds BenchmarkFrameEncodeDecode's loop body — a
// 64-key request and its 64-group reply, encoded and decoded into what the
// two ends lend — to 0 allocations: the codec runs on one goroutine, so
// there is no headroom to give.
func TestCodecAllocBudget(t *testing.T) {
	skipUnderRace(t)
	req, resp := benchFrames(TraceContext{Job: "q5-asia-0007", Tenant: "bench", Stage: 2, Attempt: 1})
	var rig codecRig
	got := testing.AllocsPerRun(200, func() {
		if err := rig.roundTrip(req, resp); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("64-key encode+decode: %.1f allocations, budget 0", got)
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

// TestServerSpansOutliveLentFrames: a span's file, job and tenant are read
// off the request frame, which the server lends to the next request once the
// reply is written, so the span ring must keep copies. After a thousand more
// requests on the same connection, every retained span reads what its own
// request carried.
func TestServerSpansOutliveLentFrames(t *testing.T) {
	const requests = 1000
	addr, cluster, srv := startNode(t)
	seedKeys(t, cluster, 4)
	if _, err := cluster.CreateFile("g", dfs.Btree, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	obs := NewServerObs()
	srv.Observe(obs)
	stats := NewStats()
	c := Dial(addr, Options{HedgeAfter: -1}, stats)
	defer c.Close()
	sent := make([]RPCSpan, requests)
	for i := range sent {
		// Runs of equal values, so a span can share its predecessor's copy.
		sent[i] = RPCSpan{File: []string{"f", "g"}[i/3%2], Job: fmt.Sprintf("job-%04d", i/2), Tenant: fmt.Sprintf("tenant-%d", i%7)}
		ctx := trace.WithRPC(context.Background(), trace.RPCInfo{Job: sent[i].Job, Tenant: sent[i].Tenant})
		if _, err := c.Lookup(ctx, sent[i].File, 0, "k1"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if d := stats.dials.Load(); d != 1 {
		t.Fatalf("%d dials: the requests did not share one connection", d)
	}
	spans := obs.Spans()
	if len(spans) != spanRingCap {
		t.Fatalf("%d spans retained, want %d", len(spans), spanRingCap)
	}
	for i, got := range spans {
		want := sent[requests-len(spans)+i]
		if got.File != want.File || got.Job != want.Job || got.Tenant != want.Tenant {
			t.Fatalf("span %d reads file %q job %q tenant %q, its request carried %q %q %q",
				i, got.File, got.Job, got.Tenant, want.File, want.Job, want.Tenant)
		}
	}
}

// TestAppendLookupBatchLeavesDstOnError: a batch that fails after its reply
// arrived — an error status, a reply with the wrong number of groups, a body
// cut short after its first group decoded — hands the caller's record array
// back at its own length, the records it held untouched and nothing left in
// the room past them. Each runs with room to spare, with room for the first
// group only (the second moves the records to a new array after the first
// was written into the caller's), and with no room at all.
func TestAppendLookupBatchLeavesDstOnError(t *testing.T) {
	keys := []lake.Key{"a", "b"}
	first := []lake.Record{{Key: "a", Data: []byte("1")}, {Key: "a", Data: []byte("2")}}
	whole := (&refResponse{Status: statusOK, Groups: [][]lake.Record{first, {{Key: "b", Data: []byte("3")}}}}).encode(opLookupBatch)
	for name, answer := range map[string]func(id uint64) []byte{
		"error status": func(id uint64) []byte {
			return (&refResponse{Status: statusTransient, ReqID: id, Msg: "jammed"}).encode(opLookupBatch)
		},
		"group count": func(id uint64) []byte {
			return (&refResponse{Status: statusOK, ReqID: id, Groups: [][]lake.Record{first}}).encode(opLookupBatch)
		},
		"truncated body": func(id uint64) []byte {
			cut := bytes.Clone(whole[:len(whole)-1])
			setRequestID(cut, id)
			return cut
		},
	} {
		for _, room := range []int{16, 4, 2} {
			t.Run(fmt.Sprintf("%s/cap%d", name, room), func(t *testing.T) {
				addr := fakeServer(t, func(conn net.Conn) {
					req, err := readRequest(conn)
					if err != nil {
						return
					}
					writeFrame(conn, answer(req.ReqID)) //nolint:errcheck
					readFrame(conn)                     //nolint:errcheck // hold the socket open until the client closes
				})
				c := Dial(addr, Options{HedgeAfter: -1, RequestTimeout: 2 * time.Second}, nil)
				defer c.Close()
				held := []lake.Record{{Key: "held-0", Data: []byte("x")}, {Key: "held-1"}}
				dst := append(make([]lake.Record, 0, room), held...)
				ends := make([]int, len(keys))
				got, err := c.AppendLookupBatch(context.Background(), dst, "f", 0, keys, ends)
				if err == nil {
					t.Fatal("the batch succeeded")
				}
				if len(got) != len(held) || cap(got) != room || &got[:1][0] != &dst[:1][0] {
					t.Fatalf("dst came back with %d records (or another array), want its own %d", len(got), len(held))
				}
				for i, r := range got[:cap(got)] {
					switch {
					case i < len(held) && (r.Key != held[i].Key || !bytes.Equal(r.Data, held[i].Data)):
						t.Fatalf("held record %d changed: %+v", i, r)
					case i >= len(held) && (r.Key != "" || r.Data != nil):
						t.Fatalf("record %+v left at %d, past the held ones", r, i)
					}
				}
			})
		}
	}
}
