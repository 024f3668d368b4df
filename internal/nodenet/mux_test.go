package nodenet

// Tests for what multiplexing adds: replies out of order, a caller that
// gives up without hurting its neighbours, a slow request that delays nobody
// behind it, frames coalesced into few writes, and the protocol violations
// that can no longer be pinned on one request.

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// countingConn counts Write calls on a client socket. While hold is non-nil
// and open, writes block — which lets a test pile callers up behind one
// flush.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
	hold   <-chan struct{}
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.hold != nil {
		<-c.hold
	}
	return c.Conn.Write(p)
}

// countWrites makes every connection c dials a countingConn.
func countWrites(c *Client, hold <-chan struct{}) *atomic.Int64 {
	writes := new(atomic.Int64)
	c.dial = func(addr string, d time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, d)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, writes, hold}, nil
	}
	return writes
}

// fakeServer accepts one connection and hands it to serve.
func fakeServer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// readRequest reads and decodes one request frame on a hand-rolled server.
func readRequest(conn net.Conn) (*request, error) {
	payload, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	return decodeRequest(payload)
}

// echoGroups answers a lookup with one record per key, keyed like the key,
// so a caller can tell its own answer from a neighbour's.
func echoGroups(req *request) []byte {
	resp := &response{Status: statusOK, ReqID: req.ReqID}
	for _, k := range req.Keys {
		resp.Groups = append(resp.Groups, []lake.Record{{Key: k, Data: []byte("v:" + k)}})
	}
	return resp.encode(opLookupBatch)
}

// TestRepliesOutOfOrder: the server answers the second request before the
// first on one socket and each caller still gets its own groups.
func TestRepliesOutOfOrder(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		a, err := readRequest(conn)
		if err != nil {
			return
		}
		b, err := readRequest(conn)
		if err != nil {
			return
		}
		writeFrame(conn, echoGroups(b)) //nolint:errcheck
		writeFrame(conn, echoGroups(a)) //nolint:errcheck
		readFrame(conn)                 //nolint:errcheck // hold the socket open until the client closes
	})
	c := Dial(addr, Options{MaxConns: 1, HedgeAfter: -1, RequestTimeout: 2 * time.Second}, nil)
	defer c.Close()

	var wg sync.WaitGroup
	for _, key := range []lake.Key{"first", "second"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, err := c.Lookup(context.Background(), "f", 0, key)
			if err != nil {
				t.Errorf("lookup %s: %v", key, err)
				return
			}
			if len(recs) != 1 || recs[0].Key != key {
				t.Errorf("lookup %s got another caller's answer: %+v", key, recs)
			}
		}()
	}
	wg.Wait()
}

// gatedTransport blocks lookups of the key "slow" until open is called and
// announces each one on entered.
type gatedTransport struct {
	dfs.NodeTransport
	entered chan struct{}
	release chan struct{}
	open    func() // closes release, once
}

func (g gatedTransport) LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	if keys[0] == "slow" {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.NodeTransport.LookupBatch(ctx, file, partition, keys)
}

// startGated serves a one-file cluster through a gatedTransport.
func startGated(t *testing.T, slowCalls int) (string, gatedTransport) {
	t.Helper()
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	g := gatedTransport{dfs.Local(cluster), make(chan struct{}, slowCalls), release, sync.OnceFunc(func() { close(release) })}
	srv := NewServer(g, discard)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.open() // a failed test must not leave handlers blocked under Close
		srv.Close()
	})
	return addr.String(), g
}

// TestCancelOneOfMany: 100 lookups in flight on one socket, one caller's
// context cancelled mid-flight. That caller returns at once; the other 99
// succeed on the same connection — one dial, nothing closed until Close.
func TestCancelOneOfMany(t *testing.T) {
	const n = 100
	addr, g := startGated(t, n)
	stats := NewStats()
	c := Dial(addr, Options{MaxConns: 1, HedgeAfter: -1}, stats)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			callCtx := context.Background()
			if i == 0 {
				callCtx = ctx
			}
			_, errs[i] = c.Lookup(callCtx, "f", 0, "slow")
			if i == 0 {
				// Only now may the others be answered: the cancelled caller
				// came back while all of them were still blocked server-side.
				g.open()
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-g.entered
	}
	cancel()
	wg.Wait()

	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("cancelled lookup returned %v, want context.Canceled", errs[0])
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Fatalf("lookup %d failed beside a cancelled neighbour: %v", i+1, err)
		}
	}
	if d, cl := stats.dials.Load(), stats.connsClosed.Load(); d != 1 || cl != 0 {
		t.Fatalf("%d dials and %d closes before Close, want 1 and 0", d, cl)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if open, inflight := stats.OpenConns(), stats.InFlight(); open != 0 || inflight != 0 {
		t.Fatalf("after Close: %d connections open, %d attempts in flight", open, inflight)
	}
	if got := stats.RPCs(); got != n {
		t.Fatalf("%d RPC attempts accounted, want %d (the abandoned one included)", got, n)
	}
}

// TestSlowRequestDelaysNobody: a request blocked in the backend does not
// hold up the reply to a fast request sent after it on the same socket.
func TestSlowRequestDelaysNobody(t *testing.T) {
	addr, g := startGated(t, 1)
	c := Dial(addr, Options{MaxConns: 1, HedgeAfter: -1}, nil)
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Lookup(context.Background(), "f", 0, "slow")
		slowDone <- err
	}()
	<-g.entered // the slow request is executing

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Lookup(ctx, "f", 0, "fast"); err != nil {
		t.Fatalf("fast lookup behind a blocked one: %v", err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow lookup finished (%v) before it was released", err)
	default:
	}
	g.open()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow lookup: %v", err)
	}
}

// TestWritesCoalesce: 64 concurrent one-key lookups take far fewer than 64
// writes on the client socket. The first flush is held until the other 63
// callers have queued behind it, so the count does not depend on timing.
func TestWritesCoalesce(t *testing.T) {
	const n = 64
	addr, cluster, _ := startNode(t)
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	c := Dial(addr, Options{MaxConns: 1, HedgeAfter: -1}, nil)
	defer c.Close()
	hold := make(chan struct{})
	writes := countWrites(c, hold)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Lookup(context.Background(), "f", 0, "k"); err != nil {
				t.Errorf("lookup: %v", err)
			}
		}()
	}
	queued := func() int32 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if mc := c.slots[0].mc; mc != nil {
			return mc.w.queued.Load()
		}
		return 0
	}
	// The first writer is inside its flush; the rest wait for the lock.
	for deadline := time.Now().Add(5 * time.Second); queued() < n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writers queued", queued(), n-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(hold)
	wg.Wait()
	if got := writes.Load(); got >= n {
		t.Fatalf("%d lookups took %d socket writes; frames are not coalesced", n, got)
	} else {
		t.Logf("%d lookups, %d socket writes", n, got)
	}
}

// TestProtocolViolationsFailTheConnection: a reply frame that cannot belong
// to anything sent on the connection is a permanent error for every caller
// pending on it, whichever frame it is.
func TestProtocolViolationsFailTheConnection(t *testing.T) {
	unknownID := (&response{Status: statusOK, ReqID: 1 << 40}).encode(opLookupBatch)
	cases := map[string][]byte{
		"short frame":      {statusOK, 0, 0},
		"unknown status":   {200, 0, 0, 0, 0, 0, 0, 0, 1},
		"id never issued":  unknownID,
		"request rejected": (&response{Status: statusPermanent, Msg: "bad frame"}).encode(0),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			const callers = 3
			addr := fakeServer(t, func(conn net.Conn) {
				for i := 0; i < callers; i++ {
					if _, err := readRequest(conn); err != nil {
						return
					}
				}
				writeFrame(conn, frame) //nolint:errcheck
				readFrame(conn)         //nolint:errcheck // wait for the client to hang up
			})
			stats := NewStats()
			c := Dial(addr, Options{MaxConns: 1, HedgeAfter: -1, RequestTimeout: 2 * time.Second}, stats)
			defer c.Close()
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, err := c.Lookup(context.Background(), "f", 0, "k")
					if !lake.IsPermanent(err) {
						t.Errorf("caller got %v, want a permanent error", err)
					}
				}()
			}
			wg.Wait()
			if open := stats.OpenConns(); open != 0 {
				t.Errorf("violating connection still open (%d)", open)
			}
		})
	}
}

// TestLateReplyIsDropped: the reply to a request whose caller gave up is
// expected, not a violation — the connection stays up and serves the next
// caller.
func TestLateReplyIsDropped(t *testing.T) {
	abandoned := make(chan struct{})
	addr := fakeServer(t, func(conn net.Conn) {
		first, err := readRequest(conn)
		if err != nil {
			return
		}
		<-abandoned
		writeFrame(conn, echoGroups(first)) //nolint:errcheck
		second, err := readRequest(conn)
		if err != nil {
			return
		}
		writeFrame(conn, echoGroups(second)) //nolint:errcheck
		readFrame(conn)                      //nolint:errcheck
	})
	stats := NewStats()
	c := Dial(addr, Options{MaxConns: 1, HedgeAfter: -1}, stats)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Lookup(ctx, "f", 0, "gone"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first lookup: %v, want deadline exceeded", err)
	}
	close(abandoned)
	recs, err := c.Lookup(context.Background(), "f", 0, "next")
	if err != nil {
		t.Fatalf("lookup after an abandoned one: %v", err)
	}
	if len(recs) != 1 || recs[0].Key != "next" {
		t.Fatalf("got the abandoned request's answer: %+v", recs)
	}
	if d, cl := stats.dials.Load(), stats.connsClosed.Load(); d != 1 || cl != 0 {
		t.Fatalf("%d dials and %d closes, want the one connection kept", d, cl)
	}
}
