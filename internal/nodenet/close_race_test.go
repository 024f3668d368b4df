package nodenet

// Regression tests for the Close-during-hedge race window (the pool-drain
// leak check extended to hedged pairs) and for graceful server drain.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// TestCloseRacesHedgedRequests: Close while hedged pairs are mid-flight.
// Both attempts of a pair hold pool slots; whichever loses must still return
// its connection (or close it) so the gauges land on zero — under -race this
// also shakes out unsynchronized slot accounting in the race window.
func TestCloseRacesHedgedRequests(t *testing.T) {
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f, err := cluster.File("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(ctx, 0, lake.Record{Key: "k", Data: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(slowTransport{NodeTransport: dfs.Local(cluster), delay: 2 * time.Millisecond}, discard)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for iter := 0; iter < 8; iter++ {
		stats := NewStats()
		c := Dial(addr.String(), Options{MaxConns: 4, HedgeAfter: 100 * time.Microsecond}, stats)
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Lookup(ctx, "f", 0, "k") //nolint:errcheck
			}()
		}
		// Close lands mid-flight: some pairs have a winner chosen and a
		// loser still on the wire, some are still racing for slots.
		time.Sleep(time.Duration(iter) * 500 * time.Microsecond)
		if err := c.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		wg.Wait()
		if open := stats.OpenConns(); open != 0 {
			t.Fatalf("iter %d: %d connections leaked after Close raced hedges", iter, open)
		}
		if inflight := stats.InFlight(); inflight != 0 {
			t.Fatalf("iter %d: pool occupancy %d after Close, want 0", iter, inflight)
		}
	}
}

// TestServerDrainFinishesInFlight: Drain must answer the request already
// executing, flip Draining (and the sidecar's /readyz) before it finishes,
// and leave the listener closed.
func TestServerDrainFinishesInFlight(t *testing.T) {
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f, err := cluster.File("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(ctx, 0, lake.Record{Key: "k", Data: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	srv := NewServer(slowTransport{NodeTransport: dfs.Local(cluster), delay: 20 * time.Millisecond,
		entered: sync.OnceFunc(func() { close(entered) })}, discard)
	obs := NewServerObs()
	srv.Observe(obs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dbg := httptest.NewServer(DebugHandler(srv, obs))
	defer dbg.Close()

	c := Dial(addr.String(), Options{}, nil)
	defer c.Close()

	type result struct {
		recs []lake.Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, err := c.Lookup(ctx, "f", 0, "k")
		done <- result{recs, err}
	}()
	// Wait until the request is actually executing server-side.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server")
	}

	drained := make(chan struct{})
	go func() {
		srv.Drain(time.Second) //nolint:errcheck
		close(drained)
	}()
	// Draining flips promptly, before the in-flight RPC completes.
	for !srv.Draining() {
		time.Sleep(100 * time.Microsecond)
	}
	if resp, err := http.Get(dbg.URL + "/readyz"); err != nil {
		t.Fatalf("readyz during drain: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz during drain: status %d, want 503", resp.StatusCode)
		}
	}
	if resp, err := http.Get(dbg.URL + "/healthz"); err != nil {
		t.Fatalf("healthz during drain: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz during drain: status %d, want 200 (liveness is not readiness)", resp.StatusCode)
		}
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight lookup failed during drain: %v", r.err)
	}
	if len(r.recs) != 1 || string(r.recs[0].Data) != "v" {
		t.Fatalf("in-flight lookup answered wrong: %+v", r.recs)
	}
	<-drained

	// New connections are refused after drain. The short request timeout
	// bounds how long the client retries the refused dial.
	c2 := Dial(addr.String(), Options{DialTimeout: 200 * time.Millisecond, RequestTimeout: 500 * time.Millisecond}, nil)
	defer c2.Close()
	if _, err := c2.Lookup(ctx, "f", 0, "k"); err == nil {
		t.Fatal("lookup succeeded against a drained server")
	}
}

// TestDebugMetricsEndpoint: the sidecar's /debug/metrics carries build info
// and per-op node series after traffic.
func TestDebugMetricsEndpoint(t *testing.T) {
	addr, _, srv := startNode(t)
	obs := NewServerObs()
	srv.Observe(obs)
	dbg := httptest.NewServer(DebugHandler(srv, obs))
	defer dbg.Close()

	c := Dial(addr, Options{}, nil)
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, "f", dfs.Heap, 2, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(ctx, "f", 0, []lake.Record{{Key: "k", Data: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "f", 0, "k"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(dbg.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		`lakeharbor_build_info{component="lakenode"`,
		"lakeharbor_node_open_conns",
		`lakeharbor_node_rpcs_total{op="lookup_batch"}`,
		`lakeharbor_node_rpc_seconds{op="append",quantile="0.99"}`,
		"lakeharbor_node_partitions 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/metrics missing %q", want)
		}
	}

	st := obs.State(srv)
	if st.Ops["lookup_batch"].Count == 0 || st.Partitions != 2 {
		t.Fatalf("node state incomplete: %+v", st)
	}
	spans := obs.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range spans {
		if s.Op == "" || s.File == "" {
			t.Fatalf("span missing op/file: %+v", s)
		}
	}
}
