package nodenet

// Wire-compatibility tests for the flagCtx trace-context extension: frames
// produced by pre-context peers must decode unchanged on the new decoder,
// frames the new encoder produces without context must be byte-identical to
// the old layout (so old servers accept them), and context-bearing frames
// must round-trip every field.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// encodeOldFormat builds a request payload exactly the way the pre-context
// encoder did: op byte, request id, file, op-specific fields — no flag bit,
// no context block.
func encodeOldFormat(r *request) []byte {
	e := &encoder{}
	e.byte(r.Op)
	e.u64(r.ReqID)
	e.string(r.File)
	switch r.Op {
	case opCreate:
		e.uvarint(uint64(r.Kind))
		e.uvarint(uint64(r.Partitions))
		encodePartitioner(e, r.Part)
	case opDrop:
	case opLookupBatch:
		e.uvarint(uint64(r.Partition))
		e.uvarint(uint64(len(r.Keys)))
		for _, k := range r.Keys {
			e.string(k)
		}
	case opLookupRange:
		e.uvarint(uint64(r.Partition))
		e.string(r.Lo)
		e.string(r.Hi)
	case opScan, opStat:
		e.uvarint(uint64(r.Partition))
	case opAppend:
		e.uvarint(uint64(r.Partition))
		e.uvarint(uint64(len(r.Recs)))
		for _, rec := range r.Recs {
			e.string(rec.Key)
			e.bytes(rec.Data)
		}
	}
	return e.buf
}

// contextFree filters the shared sample set down to old-representable
// requests (no trace context).
func contextFree() []*request {
	var out []*request
	for _, r := range sampleRequests() {
		if r.Ctx == (TraceContext{}) {
			out = append(out, r)
		}
	}
	return out
}

// TestOldFrameDecodesOnNewServer: payloads in the pre-context layout decode
// on the new decoder into the same request, with a zero context.
func TestOldFrameDecodesOnNewServer(t *testing.T) {
	for _, req := range contextFree() {
		got, err := decodeRequest(encodeOldFormat(req))
		if err != nil {
			t.Fatalf("op %d: old-format frame rejected: %v", req.Op, err)
		}
		if got.Ctx != (TraceContext{}) {
			t.Errorf("op %d: old-format frame decoded with context %+v", req.Op, got.Ctx)
		}
		if !reflect.DeepEqual(normalizeRequest(got), normalizeRequest(req)) {
			t.Errorf("op %d: old-format decode mismatch:\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
}

// TestNewFrameMatchesOldFormat: without context, the new encoder's output is
// byte-identical to the old layout — which is exactly what makes an old
// server accept frames from a new client that carries no trace context.
func TestNewFrameMatchesOldFormat(t *testing.T) {
	for _, req := range contextFree() {
		oldBytes := encodeOldFormat(req)
		newBytes := req.encode()
		if !bytes.Equal(oldBytes, newBytes) {
			t.Errorf("op %d: context-free encoding diverged from old layout:\n old %x\n new %x",
				req.Op, oldBytes, newBytes)
		}
	}
}

// TestContextFrameRoundTrip: a context-bearing frame sets the flag bit and
// round-trips all four context fields.
func TestContextFrameRoundTrip(t *testing.T) {
	req := &request{
		Op: opLookupBatch, ReqID: 77, File: "orders", Partition: 3,
		Keys: []lake.Key{"a", "b"},
		Ctx:  TraceContext{Job: "q7", Tenant: "etl", Stage: 4, Attempt: 2},
	}
	payload := req.encode()
	if payload[0]&flagCtx == 0 {
		t.Fatal("context-bearing frame did not set flagCtx")
	}
	got, err := decodeRequest(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Ctx != req.Ctx {
		t.Fatalf("context mismatch: got %+v, want %+v", got.Ctx, req.Ctx)
	}
	if got.Op != opLookupBatch {
		t.Fatalf("flag bit leaked into op: %d", got.Op)
	}
	// The context block is strictly additive, inserted between the request
	// id and the file: prefix (minus flag bit) and suffix must match the
	// old layout byte for byte.
	old := encodeOldFormat(req)
	if payload[0]&^flagCtx != old[0] || !bytes.Equal(payload[1:9], old[1:9]) {
		t.Error("op/id prefix changed by the context block")
	}
	tail := len(old) - 9 // file + op-specific fields
	if !bytes.Equal(payload[len(payload)-tail:], old[9:]) {
		t.Error("context block is not a pure insertion between id and file")
	}
}

// TestFlaggedFrameRejectedByOldServer simulates the old decoder — which read
// the op byte raw, with no flag masking — against a flagged frame: it must
// fail (unknown op or desync), never silently misparse into a valid request.
func TestFlaggedFrameRejectedByOldServer(t *testing.T) {
	req := &request{
		Op: opScan, ReqID: 5, File: "base", Partition: 0,
		Ctx: TraceContext{Job: "j", Stage: 1},
	}
	payload := req.encode()

	// Old decoder behavior: raw op byte, then id, then file. The raw op
	// opScan|flagCtx matches no case, so the old switch would fail exactly
	// like the new decoder does on a genuinely unknown op.
	d := &decoder{buf: payload}
	rawOp := d.byte()
	if rawOp == opScan {
		t.Fatal("flagged frame carries a clean op byte; old servers would misroute it")
	}
	known := false
	for _, op := range []byte{opCreate, opDrop, opLookupBatch, opLookupRange, opScan, opAppend, opStat} {
		if rawOp == op {
			known = true
		}
	}
	if known {
		t.Fatalf("flagged op byte %d collides with a real op", rawOp)
	}
}

// TestContextBoundsRejected: absurd stage/attempt ordinals are a decode
// error, not a silent huge int.
func TestContextBoundsRejected(t *testing.T) {
	e := &encoder{}
	e.byte(opDrop | flagCtx)
	e.u64(1)
	e.string("job")
	e.uvarint(uint64(maxSaneCount) + 1) // stage out of bounds
	e.string("tenant")
	e.uvarint(0)
	e.string("file")
	if _, err := decodeRequest(e.buf); err == nil {
		t.Fatal("absurd trace stage accepted")
	}
}

// serveSerialFrozen is the pre-multiplexing server loop, kept verbatim as a
// compatibility peer: one request at a time per connection, unbuffered
// frame I/O, replies strictly in arrival order.
func serveSerialFrozen(conn net.Conn, backend dfs.NodeTransport) {
	defer conn.Close()
	s := &Server{backend: backend}
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		req, err := decodeRequest(payload)
		if err != nil {
			resp := &response{Status: statusPermanent, Msg: err.Error()}
			writeFrame(conn, resp.encode(0)) //nolint:errcheck
			return
		}
		resp := s.execute(req)
		if err := writeFrame(conn, resp.encode(req.Op)); err != nil {
			return
		}
	}
}

// seedKeys creates file "f" (one btree partition) on cluster holding keys
// k0..k{n-1}, key ki carrying the single byte i.
func seedKeys(t testing.TB, cluster *dfs.Cluster, n int) {
	t.Helper()
	f, err := cluster.CreateFile("f", dfs.Btree, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := lake.Record{Key: fmt.Sprintf("k%d", i), Data: []byte{byte(i)}}
		if err := f.Append(context.Background(), 0, rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewClientAgainstSerialServer: the multiplexing client pipelines many
// requests per socket; a server that answers them one at a time, in order,
// is just a slow multiplexing server and every caller gets its answer.
func TestNewClientAgainstSerialServer(t *testing.T) {
	const keys = 32
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	seedKeys(t, cluster, keys)
	backend := dfs.Local(cluster)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func() {
				defer served.Done()
				serveSerialFrozen(conn, backend)
			}()
		}
	}()
	stats := NewStats()
	c := Dial(ln.Addr().String(), Options{MaxConns: 2, HedgeAfter: 50 * time.Microsecond}, stats)
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				recs, err := c.Lookup(context.Background(), "f", 0, fmt.Sprintf("k%d", i))
				if err != nil {
					t.Errorf("lookup k%d: %v", i, err)
					return
				}
				if len(recs) != 1 || recs[0].Data[0] != byte(i) {
					t.Errorf("lookup k%d: wrong answer %+v", i, recs)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	ln.Close()
	served.Wait()
	if open := stats.OpenConns(); open != 0 {
		t.Fatalf("%d connections leaked", open)
	}
}

// TestSerialClientAgainstNewServer: a pre-multiplexing client — one request
// on the socket at a time, header and payload in separate writes, ids that
// restart per connection — gets each answer before it sends the next.
func TestSerialClientAgainstNewServer(t *testing.T) {
	const keys = 32
	addr, cluster, _ := startNode(t)
	seedKeys(t, cluster, keys)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for i := 0; i < keys; i++ {
		req := &request{Op: opLookupBatch, ReqID: uint64(i + 1), File: "f", Keys: []lake.Key{fmt.Sprintf("k%d", i)}}
		if err := writeFrame(conn, req.encode()); err != nil {
			t.Fatal(err)
		}
		raw, err := readFrame(conn)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp, err := decodeResponse(raw, req.Op)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.ReqID != req.ReqID || resp.Status != statusOK {
			t.Fatalf("request %d answered with id %d status %d", i, resp.ReqID, resp.Status)
		}
		if len(resp.Groups) != 1 || len(resp.Groups[0]) != 1 || resp.Groups[0][0].Data[0] != byte(i) {
			t.Fatalf("request %d: wrong answer %+v", i, resp.Groups)
		}
	}
}
