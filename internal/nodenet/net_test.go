package nodenet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/obs"
)

func discard(string, ...any) {}

// startNode spins a lakenode-shaped server (Local over a 1-node cluster) on
// a loopback port and returns its address plus the backing cluster.
func startNode(t testing.TB) (string, *dfs.Cluster, *Server) {
	t.Helper()
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	srv := NewServer(dfs.Local(cluster), discard)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String(), cluster, srv
}

func TestClientServerRoundTrip(t *testing.T) {
	addr, _, _ := startNode(t)
	stats := NewStats()
	c := Dial(addr, Options{}, stats)
	defer c.Close()
	ctx := context.Background()

	if err := c.CreateFile(ctx, "base", dfs.Btree, 3, lake.HashPartitioner{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	recs := []lake.Record{
		{Key: "a", Data: []byte("1")},
		{Key: "b", Data: []byte("2")},
		{Key: "b", Data: []byte("2bis")},
		{Key: "c", Data: []byte("3")},
	}
	if err := c.Append(ctx, "base", 1, recs); err != nil {
		t.Fatalf("append: %v", err)
	}

	got, err := c.Lookup(ctx, "base", 1, "b")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("lookup b: got %d records, want 2", len(got))
	}

	groups, err := c.LookupBatch(ctx, "base", 1, []lake.Key{"a", "nope", "c"})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(groups) != 3 || len(groups[0]) != 1 || len(groups[1]) != 0 || len(groups[2]) != 1 {
		t.Fatalf("batch groups wrong: %+v", groups)
	}

	rng, err := c.LookupRange(ctx, "base", 1, "a", "b")
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if len(rng) != 3 {
		t.Fatalf("range [a,b]: got %d records, want 3", len(rng))
	}

	var scanned []lake.Record
	err = c.Scan(ctx, "base", 1, func(r lake.Record) error {
		scanned = append(scanned, r)
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(scanned) != 4 {
		t.Fatalf("scan: got %d records, want 4", len(scanned))
	}

	n, bytes, err := c.Stat(ctx, "base", 1)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if n != 4 || bytes <= 0 {
		t.Fatalf("stat: got (%d, %d)", n, bytes)
	}

	if err := c.DropFile(ctx, "base"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, err := c.Lookup(ctx, "base", 0, "a"); !errors.Is(err, lake.ErrNoSuchFile) {
		t.Fatalf("lookup after drop: want ErrNoSuchFile, got %v", err)
	}
	if stats.RPCs() == 0 {
		t.Fatal("stats recorded no RPCs")
	}
}

// TestRemoteSentinelErrors: the sentinel error classes must survive the
// network hop so the executor treats remote failures like local ones.
func TestRemoteSentinelErrors(t *testing.T) {
	addr, _, _ := startNode(t)
	c := Dial(addr, Options{}, nil)
	defer c.Close()
	ctx := context.Background()

	_, err := c.Lookup(ctx, "ghost", 0, "k")
	if !errors.Is(err, lake.ErrNoSuchFile) {
		t.Fatalf("want ErrNoSuchFile, got %v", err)
	}
	if !lake.IsPermanent(err) {
		t.Fatalf("ErrNoSuchFile must classify permanent, got %v", err)
	}

	if err := c.CreateFile(ctx, "f", dfs.Heap, 2, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Lookup(ctx, "f", 7, "k")
	if !errors.Is(err, lake.ErrNoSuchPartition) {
		t.Fatalf("want ErrNoSuchPartition, got %v", err)
	}
}

// TestRefusedConnIsTransient is the first classification regression from
// ISSUE 7: a refused connection is a transient error (retried with backoff),
// and the same client succeeds once a server appears on the port.
func TestRefusedConnIsTransient(t *testing.T) {
	// Reserve a port, then close the listener so dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := Dial(addr, Options{RequestTimeout: 150 * time.Millisecond, DialTimeout: 50 * time.Millisecond}, nil)
	defer c.Close()
	_, err = c.Lookup(context.Background(), "f", 0, "k")
	if err == nil {
		t.Fatal("lookup against dead port succeeded")
	}
	if lake.IsPermanent(err) {
		t.Fatalf("refused connection classified permanent: %v", err)
	}

	// A server comes up on the same port: the executor's retry (modeled by
	// this second call) must now go through. Rebinding a just-released
	// loopback port can race another process, so tolerate a bind failure.
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	srv := NewServer(dfs.Local(cluster), discard)
	if _, err := srv.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv.Close()
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(context.Background(), "f", 0, "k"); err != nil {
		t.Fatalf("lookup after server start: %v", err)
	}
}

// TestMalformedFrameIsPermanent is the second classification regression: a
// peer answering with garbage (an oversize length prefix here, an
// undecodable payload below) is a protocol error — permanent, no retry.
func TestMalformedFrameIsPermanent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrame(conn) //nolint:errcheck // swallow the request
		// 0xFFFFFFFF length prefix: way past MaxFrame.
		conn.Write([]byte{0xff, 0xff, 0xff, 0xff}) //nolint:errcheck
	}()

	c := Dial(ln.Addr().String(), Options{RequestTimeout: time.Second}, nil)
	defer c.Close()
	_, err = c.Lookup(context.Background(), "f", 0, "k")
	if err == nil {
		t.Fatal("lookup against garbage server succeeded")
	}
	if !lake.IsPermanent(err) {
		t.Fatalf("oversize frame classified transient: %v", err)
	}
	wg.Wait()
}

func TestUndecodablePayloadIsPermanent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrame(conn) //nolint:errcheck
		// A well-framed payload that is not a valid response (status 200).
		payload := []byte{200, 0, 0, 0, 0, 0, 0, 0, 0}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		conn.Write(hdr[:])  //nolint:errcheck
		conn.Write(payload) //nolint:errcheck
	}()

	c := Dial(ln.Addr().String(), Options{RequestTimeout: time.Second}, nil)
	defer c.Close()
	_, err = c.Lookup(context.Background(), "f", 0, "k")
	if err == nil {
		t.Fatal("lookup against undecodable response succeeded")
	}
	if !lake.IsPermanent(err) {
		t.Fatalf("undecodable payload classified transient: %v", err)
	}
	wg.Wait()
}

// TestServerSurvivesMalformedRequest: garbage from a client must not take
// the server down, and the connection is dropped so the next client starts
// clean.
func TestServerSurvivesMalformedRequest(t *testing.T) {
	addr, cluster, srv := startNode(t)
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, []byte{99, 1, 2, 3}); err != nil { // unknown op
		t.Fatal(err)
	}
	raw, err := readFrame(conn)
	if err != nil {
		t.Fatalf("no answer to malformed request: %v", err)
	}
	if raw[0] != statusPermanent {
		t.Fatalf("malformed request answered with status %d, want permanent", raw[0])
	}
	conn.Close()

	// Server still serves well-formed clients.
	c := Dial(addr, Options{}, nil)
	defer c.Close()
	if _, err := c.Lookup(context.Background(), "f", 0, "k"); err != nil {
		t.Fatalf("lookup after malformed request: %v", err)
	}
	if srv.Served() == 0 {
		t.Fatal("server served nothing")
	}
}

// slowTransport delays read ops so hedge timers fire deterministically.
type slowTransport struct {
	dfs.NodeTransport
	delay time.Duration
	// entered, when non-nil, is called as each lookup enters, before its
	// delay.
	entered func()
}

func (s slowTransport) LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	if s.entered != nil {
		s.entered()
	}
	time.Sleep(s.delay)
	return s.NodeTransport.LookupBatch(ctx, file, partition, keys)
}

// TestHedgingFiresAndWins: with a fixed hedge delay far below the server's
// injected latency, every lookup hedges; responses still arrive exactly
// once per logical call and duplicates are suppressed, not surfaced.
func TestHedgingFiresAndWins(t *testing.T) {
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
	srv := NewServer(slowTransport{NodeTransport: dfs.Local(cluster), delay: 5 * time.Millisecond}, discard)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats := NewStats()
	c := Dial(addr.String(), Options{HedgeAfter: 500 * time.Microsecond}, stats)
	for i := 0; i < 8; i++ {
		recs, err := c.Lookup(ctx, "f", 0, "k")
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if len(recs) != 1 || string(recs[0].Data) != "v" {
			t.Fatalf("lookup %d: wrong answer %+v", i, recs)
		}
	}
	if stats.HedgeFires() == 0 {
		t.Fatal("no hedged attempt fired despite 5ms server latency and 0.5ms hedge delay")
	}
	// Both attempts of a hedged pair eventually answer: each completed
	// hedge contributes a winner and a suppressed duplicate.
	if stats.HedgeWins()+stats.HedgeDups() == 0 {
		t.Fatal("hedges fired but neither wins nor suppressed duplicates were recorded")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if open := stats.OpenConns(); open != 0 {
		t.Fatalf("%d connections leaked after Close", open)
	}
}

// TestHedgingDisabledForAppends: mutations must never hedge, whatever the
// latency.
func TestHedgingDisabledForAppends(t *testing.T) {
	addr, _, _ := startNode(t)
	stats := NewStats()
	c := Dial(addr, Options{HedgeAfter: time.Nanosecond}, stats)
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, "f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rec := lake.Record{Key: fmt.Sprintf("k%d", i), Data: []byte("v")}
		if err := c.Append(ctx, "f", 0, []lake.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if fires := stats.HedgeFires(); fires != 0 {
		t.Fatalf("appends hedged %d times", fires)
	}
	n, _, err := c.Stat(ctx, "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("got %d records after 20 appends, want exactly 20 (no duplicated mutations)", n)
	}
}

// TestCloseDrainsPool: Close must wait out in-flight requests and bring the
// open-connection gauge to zero — the oracle's leak assertion depends on it.
func TestCloseDrainsPool(t *testing.T) {
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(slowTransport{NodeTransport: dfs.Local(cluster), delay: 2 * time.Millisecond}, discard)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats := NewStats()
	c := Dial(addr.String(), Options{MaxConns: 3}, stats)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Lookup(context.Background(), "f", 0, "k") //nolint:errcheck
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if open := stats.OpenConns(); open != 0 {
		t.Fatalf("%d connections leaked after Close", open)
	}
	if inflight := stats.InFlight(); inflight != 0 {
		t.Fatalf("pool occupancy %d after Close, want 0", inflight)
	}
	// Requests after Close fail cleanly rather than re-opening conns.
	if _, err := c.Lookup(context.Background(), "f", 0, "k"); err == nil {
		t.Fatal("lookup succeeded on closed client")
	}
	if open := stats.OpenConns(); open != 0 {
		t.Fatalf("closed client re-opened %d connections", open)
	}
}

// TestDeadlineRespected: a context deadline shorter than the server's
// latency must bound the call.
func TestDeadlineRespected(t *testing.T) {
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(slowTransport{NodeTransport: dfs.Local(cluster), delay: 500 * time.Millisecond}, discard)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := Dial(addr.String(), Options{HedgeAfter: -1}, nil)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = c.Lookup(ctx, "f", 0, "k")
	if err == nil {
		t.Fatal("lookup beat a 30ms deadline against a 500ms server")
	}
	if lake.IsPermanent(err) {
		t.Fatalf("deadline error classified permanent: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 300*time.Millisecond {
		t.Fatalf("deadline not enforced: call took %v", elapsed)
	}
}

// TestClusterOverNetwork drives a dfs cluster whose nodes are nodenet
// clients against lakenode-shaped servers — the full remote data plane in
// miniature — and checks a round trip plus metrics text.
func TestClusterOverNetwork(t *testing.T) {
	stats := NewStats()
	const nodes = 2
	var transports []dfs.NodeTransport
	for i := 0; i < nodes; i++ {
		addr, _, _ := startNode(t)
		c := Dial(addr, Options{}, stats)
		t.Cleanup(func() { c.Close() })
		transports = append(transports, c)
	}
	cluster, err := dfs.NewClusterWithTransports(dfs.Config{}, transports)
	if err != nil {
		t.Fatal(err)
	}

	f, err := cluster.CreateFile("orders", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		rec := lake.Record{Key: fmt.Sprintf("k%02d", i), Data: []byte{byte(i)}}
		part := f.Partitioner().Partition(rec.Key, f.NumPartitions())
		if err := f.Append(ctx, part, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i)
		part := f.Partitioner().Partition(key, f.NumPartitions())
		recs, err := f.Lookup(ctx, part, key)
		if err != nil {
			t.Fatalf("lookup %s: %v", key, err)
		}
		if len(recs) != 1 || recs[0].Data[0] != byte(i) {
			t.Fatalf("lookup %s: wrong answer %+v", key, recs)
		}
	}
	n, err := cluster.Len("orders")
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("cluster.Len = %d, want 40", n)
	}
	sz, err := cluster.FileSizeBytes("orders")
	if err != nil || sz <= 0 {
		t.Fatalf("FileSizeBytes = (%d, %v)", sz, err)
	}
	cluster.DropFile("orders")
	if _, err := cluster.File("orders"); err == nil {
		t.Fatal("file survived drop")
	}

	var mw obs.Writer
	stats.Collect(&mw)
	var buf bytes.Buffer
	mw.WriteTo(&buf) //nolint:errcheck
	out := buf.String()
	for _, want := range []string{
		"lakeharbor_net_conns_open",
		"lakeharbor_net_pool_inflight",
		"lakeharbor_net_rpcs_total",
		"lakeharbor_net_hedge_fires_total",
		"lakeharbor_net_rpc_latency_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, out)
		}
	}
}
