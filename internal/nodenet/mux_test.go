package nodenet

// Tests for what multiplexing adds: replies out of order, a caller that
// gives up without hurting its neighbours, a slow request that delays nobody
// behind it, frames coalesced into few writes, and the protocol violations
// that can no longer be pinned on one request.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// countingConn counts Write calls on a socket.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countWrites makes every connection c dials a countingConn.
func countWrites(c *Client) *atomic.Int64 {
	writes := new(atomic.Int64)
	c.dial = func(addr string, d time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, d)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, writes}, nil
	}
	return writes
}

// countingListener makes every connection a server accepts a countingConn.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.writes}, nil
}

// startCountedNode is startNode with the server's socket writes counted.
func startCountedNode(t testing.TB) (string, *dfs.Cluster, *atomic.Int64) {
	t.Helper()
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	srv := NewServer(dfs.Local(cluster), discard)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	writes := new(atomic.Int64)
	srv.ln = countingListener{ln, writes} // what Listen does, around a listener of the test's
	srv.wg.Add(1)
	go srv.acceptLoop(srv.ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), cluster, writes
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
	resp := &refResponse{Status: statusOK, ReqID: req.ReqID}
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

// TestWritesCoalesce: 64 callers released together put their frames on the
// socket in a handful of writes, and their replies come back in a handful —
// nothing staged, whatever GOMAXPROCS is (CI runs this under -cpu 1,2,4). A
// lone lookup is exactly one write each way. The bound is on the median of
// a few rounds: how late the scheduler starts the last of 64 goroutines on a
// shared machine is not this package's to promise.
func TestWritesCoalesce(t *testing.T) {
	const n, most, rounds = 64, 16, 7
	addr, cluster, srvWrites := startCountedNode(t)
	seedKeys(t, cluster, 1)
	c := Dial(addr, Options{HedgeAfter: -1}, nil)
	defer c.Close()
	writes := countWrites(c)
	lookup := func() {
		if recs, err := c.Lookup(context.Background(), "f", 0, "k0"); err != nil || len(recs) != 1 {
			t.Errorf("lookup: %v, %v", recs, err)
		}
	}
	lookup() // dial
	if cw, sw := writes.Swap(0), srvWrites.Swap(0); cw != 1 || sw != 1 {
		t.Fatalf("a lone lookup took %d client and %d server writes, want 1 and 1", cw, sw)
	}
	var client, server []int64
	for r := 0; r < rounds; r++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				lookup()
			}()
		}
		close(start)
		wg.Wait()
		client, server = append(client, writes.Swap(0)), append(server, srvWrites.Swap(0))
	}
	t.Logf("%d lookups a round: client writes %v, server writes %v", n, client, server)
	slices.Sort(client)
	slices.Sort(server)
	if cw, sw := client[rounds/2], server[rounds/2]; cw > most || sw > most {
		t.Fatalf("%d concurrent lookups took a median of %d client and %d server writes, want at most %d each way", n, cw, sw, most)
	}
}

// TestBurstFailsTransiently: a connection that dies under a burst — the peer
// hangs up having read half of it, or the server dies having written half of
// its replies — fails every caller still pending on it with a transient
// error, at once; nobody hangs and nobody is told not to retry. The slot
// re-dials for the next call.
func TestBurstFailsTransiently(t *testing.T) {
	const n = 64
	frame := 4 + len((&request{Op: opLookupBatch, File: "f", Keys: []lake.Key{"k"}}).encode())
	cases := map[string]struct {
		answered int
		serve    func(conn net.Conn, allPending <-chan struct{})
	}{
		"peer closes mid-request-burst": {0, func(conn net.Conn, allPending <-chan struct{}) {
			io.CopyN(io.Discard, conn, int64(n*frame/2)) //nolint:errcheck
			<-allPending
		}},
		"server dies mid-reply-burst": {n / 2, func(conn net.Conn, allPending <-chan struct{}) {
			var replies bytes.Buffer
			for i := 0; i < n; i++ {
				req, err := readRequest(conn)
				if err != nil {
					return
				}
				writeFrame(&replies, echoGroups(req)) //nolint:errcheck
			}
			<-allPending
			// Same-sized replies: n/2 whole frames, then a torn header.
			conn.Write(replies.Bytes()[:replies.Len()/2+3]) //nolint:errcheck
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			allPending := make(chan struct{})
			var peers sync.WaitGroup
			peers.Add(1)
			go func() {
				defer peers.Done()
				for first := true; ; first = false {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					peers.Add(1)
					go func(first bool) {
						defer peers.Done()
						defer conn.Close()
						if first {
							tc.serve(conn, allPending)
							return
						}
						for { // the re-dialed connection: a healthy peer
							req, err := readRequest(conn)
							if err != nil || writeFrame(conn, echoGroups(req)) != nil {
								return
							}
						}
					}(first)
				}
			}()
			defer func() {
				ln.Close()
				peers.Wait()
			}()

			stats := NewStats()
			c := Dial(ln.Addr().String(), Options{HedgeAfter: -1, RequestTimeout: time.Minute}, stats)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var answered atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					recs, err := c.Lookup(ctx, "f", 0, "k")
					switch {
					case err == nil && len(recs) == 1 && recs[0].Key == "k":
						answered.Add(1)
					case err == nil:
						t.Errorf("wrong answer %+v", recs)
					case ctx.Err() != nil:
						t.Errorf("caller hung until the test gave up: %v", err)
					case lake.IsPermanent(err):
						t.Errorf("caller got a permanent error: %v", err)
					}
				}()
			}
			pending := func() int {
				c.mu.Lock()
				mc := c.slots[0].mc
				c.mu.Unlock()
				if mc == nil {
					return 0
				}
				mc.mu.Lock()
				defer mc.mu.Unlock()
				return len(mc.pending)
			}
			for pending() < n && ctx.Err() == nil {
				time.Sleep(100 * time.Microsecond)
			}
			close(allPending)
			wg.Wait()
			if got := answered.Load(); got != int64(tc.answered) {
				t.Errorf("%d callers answered, want %d", got, tc.answered)
			}
			if recs, err := c.Lookup(ctx, "f", 0, "again"); err != nil || len(recs) != 1 || recs[0].Key != "again" {
				t.Fatalf("lookup after the connection died: %+v, %v", recs, err)
			}
			if d := stats.dials.Load(); d != 2 {
				t.Errorf("%d dials, want 2: the slot re-dials once", d)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if open, inflight := stats.OpenConns(), stats.InFlight(); open != 0 || inflight != 0 {
				t.Errorf("after Close: %d connections open, %d attempts in flight", open, inflight)
			}
		})
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

// TestOversizeReplyFailsOnlyItsCaller: a range whose reply would exceed
// MaxFrame is answered with a permanent error under its own request id — the
// writer would refuse the frame and the connection would close under every
// request in flight on it, each of which would then retry a failure that
// cannot heal. Lookups running beside it on the same connection succeed.
func TestOversizeReplyFailsOnlyItsCaller(t *testing.T) {
	addr, cluster, _ := startNode(t)
	seedKeys(t, cluster, 4)
	big, err := cluster.CreateFile("big", dfs.Btree, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 1<<20) // every record shares it: the node stores 1 MiB
	for i := 0; i <= MaxFrame>>20; i++ {
		if err := big.Append(context.Background(), 0, lake.Record{Key: fmt.Sprintf("r%03d", i), Data: value}); err != nil {
			t.Fatal(err)
		}
	}
	stats := NewStats()
	c := Dial(addr, Options{MaxConns: 1, HedgeAfter: -1, RequestTimeout: time.Minute}, stats)
	defer c.Close()
	if _, err := c.Lookup(context.Background(), "f", 0, "k0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var beside sync.WaitGroup
	for g := 0; g < 4; g++ {
		beside.Add(1)
		go func() {
			defer beside.Done()
			for i := 0; ; i++ {
				key := fmt.Sprintf("k%d", i%4)
				if recs, err := c.Lookup(context.Background(), "f", 0, key); err != nil || len(recs) != 1 {
					t.Errorf("lookup %s beside the oversize range: %v %v", key, recs, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	_, err = c.LookupRange(context.Background(), "big", 0, "r", "s")
	close(done)
	beside.Wait()
	if err == nil || !lake.IsPermanent(err) || !strings.Contains(err.Error(), "exceeds MaxFrame") {
		t.Fatalf("oversize range: %v, want a permanent MaxFrame error", err)
	}
	if _, err := c.Lookup(context.Background(), "f", 0, "k1"); err != nil {
		t.Fatalf("lookup after the oversize range: %v", err)
	}
	if d := stats.dials.Load(); d != 1 {
		t.Fatalf("%d dials: the oversize reply cost the connection", d)
	}
}
