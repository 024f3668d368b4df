package nodenet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"

	"lakeharbor/internal/lake"
)

func sampleRequests() []*request {
	return []*request{
		{Op: opCreate, ReqID: 1, File: "base", Kind: 1, Partitions: 4, Part: lake.HashPartitioner{}},
		{Op: opCreate, ReqID: 2, File: "dim", Kind: 0, Partitions: 2,
			Part: lake.RangePartitioner{Bounds: []lake.Key{"b", "m", "x"}}},
		{Op: opDrop, ReqID: 3, File: "base"},
		{Op: opLookupBatch, ReqID: 4, File: "base", Partition: 2,
			Keys: []lake.Key{"k1", "", "k3"}},
		{Op: opLookupRange, ReqID: 5, File: "idx", Partition: 0, Lo: "a", Hi: "zz"},
		{Op: opScan, ReqID: 6, File: "base", Partition: 1},
		{Op: opAppend, ReqID: 7, File: "base", Partition: 3, Recs: []lake.Record{
			{Key: "k", Data: []byte("v")},
			{Key: "", Data: nil},
		}},
		{Op: opStat, ReqID: 8, File: "base", Partition: 0},
		// Trace-context-bearing frames (flagCtx layout).
		{Op: opLookupBatch, ReqID: 9, File: "base", Partition: 1, Keys: []lake.Key{"k"},
			Ctx: TraceContext{Job: "join-q7", Tenant: "etl", Stage: 2, Attempt: 1}},
		{Op: opScan, ReqID: 10, File: "base", Partition: 0,
			Ctx: TraceContext{Job: "scan-all", Stage: 0}},
		{Op: opAppend, ReqID: 11, File: "base", Partition: 2,
			Recs: []lake.Record{{Key: "k", Data: []byte("v")}},
			Ctx:  TraceContext{Job: "ingest", Tenant: "adhoc", Stage: 3, Attempt: 2}},
	}
}

func sampleResponses() []struct {
	op   byte
	resp *refResponse
} {
	return []struct {
		op   byte
		resp *refResponse
	}{
		{opCreate, &refResponse{Status: statusOK, ReqID: 1}},
		{opDrop, &refResponse{Status: statusOK, ReqID: 2}},
		{opLookupBatch, &refResponse{Status: statusOK, ReqID: 3, Groups: [][]lake.Record{
			{{Key: "a", Data: []byte("1")}, {Key: "a", Data: []byte("2")}},
			nil,
			{{Key: "c", Data: nil}},
		}}},
		{opLookupRange, &refResponse{Status: statusOK, ReqID: 4, Recs: []lake.Record{
			{Key: "a", Data: []byte("x")},
		}}},
		{opScan, &refResponse{Status: statusOK, ReqID: 5}},
		{opAppend, &refResponse{Status: statusOK, ReqID: 6}},
		{opStat, &refResponse{Status: statusOK, ReqID: 7, Records: 12, Bytes: 4096}},
		{opLookupBatch, &refResponse{Status: statusTransient, ReqID: 8, Msg: "gate jammed"}},
		{opScan, &refResponse{Status: statusPermanent, ReqID: 9, Msg: "bad frame"}},
		{opLookupBatch, &refResponse{Status: statusNoFile, ReqID: 10, Msg: `no such file "x"`}},
		{opStat, &refResponse{Status: statusNoPartition, ReqID: 11, Msg: "base/9"}},
	}
}

// normalizeRecords maps empty slices to nil so decoded forms compare equal
// to their sources (the codec does not distinguish nil from empty).
func normalizeRecords(recs []lake.Record) []lake.Record {
	if len(recs) == 0 {
		return nil
	}
	for i := range recs {
		if len(recs[i].Data) == 0 {
			recs[i].Data = nil
		}
	}
	return recs
}

func normalizeRequest(r *request) *request {
	cp := *r
	if len(cp.Keys) == 0 {
		cp.Keys = nil
	}
	cp.Keys = append([]lake.Key(nil), cp.Keys...)
	cp.Recs = normalizeRecords(cp.Recs)
	return &cp
}

func normalizeResponse(r *refResponse) *refResponse {
	cp := *r
	if len(cp.Groups) == 0 {
		cp.Groups = nil
	}
	for i := range cp.Groups {
		cp.Groups[i] = normalizeRecords(cp.Groups[i])
	}
	cp.Recs = normalizeRecords(cp.Recs)
	return &cp
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		got, err := decodeRequest(req.encode())
		if err != nil {
			t.Fatalf("op %d: decode: %v", req.Op, err)
		}
		want := normalizeRequest(req)
		if !reflect.DeepEqual(normalizeRequest(got), want) {
			t.Errorf("op %d: round trip mismatch:\n got %+v\nwant %+v", req.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, tc := range sampleResponses() {
		got, err := decodeResponse(tc.resp.encode(tc.op), tc.op)
		if err != nil {
			t.Fatalf("op %d status %d: decode: %v", tc.op, tc.resp.Status, err)
		}
		want := normalizeResponse(tc.resp)
		if !reflect.DeepEqual(normalizeResponse(&got), want) {
			t.Errorf("op %d: round trip mismatch:\n got %+v\nwant %+v", tc.op, got, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, p := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
}

// TestFrameShortRead covers torn writes: every strict prefix of a valid
// frame stream must fail with an I/O error (unexpected EOF), never decode.
func TestFrameShortRead(t *testing.T) {
	var buf bytes.Buffer
	req := &request{Op: opLookupBatch, ReqID: 42, File: "base", Partition: 1, Keys: []lake.Key{"k"}}
	if err := writeFrame(&buf, req.encode()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := readFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut=%d: torn frame decoded successfully", cut)
		}
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: want EOF-class error, got %v", cut, err)
		}
	}
}

// TestFrameOversize: a length prefix above MaxFrame must return
// errFrameTooBig without attempting the allocation.
func TestFrameOversize(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	_, err := readFrame(bytes.NewReader(hdr))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("exceeds MaxFrame")) {
		t.Fatalf("want frame-too-big error, got %v", err)
	}
}

// TestDecodeTruncatedPayloads: every strict prefix of a valid payload must
// fail to decode (truncation is detected), and decoding must never panic.
func TestDecodeTruncatedPayloads(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := req.encode()
		for cut := 0; cut < len(payload); cut++ {
			if r, err := decodeRequest(payload[:cut]); err == nil {
				t.Fatalf("op %d cut=%d: truncated request decoded: %+v", req.Op, cut, r)
			}
		}
	}
	for _, tc := range sampleResponses() {
		payload := tc.resp.encode(tc.op)
		for cut := 0; cut < len(payload); cut++ {
			if r, err := decodeResponse(payload[:cut], tc.op); err == nil {
				t.Fatalf("op %d cut=%d: truncated response decoded: %+v", tc.op, cut, r)
			}
		}
	}
}

// TestDecodeTrailingGarbage: extra bytes after a valid payload are a
// protocol error, not silently ignored.
func TestDecodeTrailingGarbage(t *testing.T) {
	payload := (&request{Op: opDrop, ReqID: 1, File: "f"}).encode()
	if _, err := decodeRequest(append(payload, 0xee)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// sameOutcome is the differential property: the aliasing decoder and the
// copying reference agree on every input — the same value, or the same error.
func sameOutcome(t *testing.T, what string, got, ref any, err, refErr error) {
	t.Helper()
	switch {
	case err != nil && refErr != nil:
		if err.Error() != refErr.Error() {
			t.Fatalf("%s: decode fails with %q, reference with %q", what, err, refErr)
		}
	case err != nil || refErr != nil:
		t.Fatalf("%s: decode error %v, reference error %v", what, err, refErr)
	case !reflect.DeepEqual(got, ref):
		t.Fatalf("%s: decode differs from reference:\n got %+v\n ref %+v", what, got, ref)
	}
}

func diffRequest(t *testing.T, payload []byte) (*request, error) {
	t.Helper()
	got, err := decodeRequest(payload)
	ref, refErr := refDecodeRequest(payload)
	if err == nil && refErr == nil {
		sameOutcome(t, "request", normalizeRequest(got), normalizeRequest(ref), nil, nil)
	} else {
		sameOutcome(t, "request", nil, nil, err, refErr)
	}
	// A server decodes into a request the pool lends: nothing of the
	// request it last held may show through.
	reused := &request{
		Op: opCreate, ReqID: 99, Ctx: TraceContext{Job: "old", Tenant: "old", Stage: 3, Attempt: 1},
		File: "old", Partition: 5, Kind: 1, Partitions: 3, Part: lake.HashPartitioner{},
		Keys: []lake.Key{"w", "x", "y", "z"}, Lo: "l", Hi: "h", Recs: []lake.Record{{Key: "r"}},
		recs: []lake.Record{{Key: "kept"}}, ends: []int{1},
	}
	reusedErr := reused.decode(payload)
	if reusedErr == nil && refErr == nil {
		cp := *reused
		cp.recs, cp.ends = nil, nil // the lent answer arrays: not part of the value
		sameOutcome(t, "request into a reused one", normalizeRequest(&cp), normalizeRequest(ref), nil, nil)
	} else {
		sameOutcome(t, "request into a reused one", nil, nil, reusedErr, refErr)
	}
	return got, err
}

func diffResponse(t *testing.T, payload []byte, op byte) (refResponse, error) {
	t.Helper()
	what := fmt.Sprintf("op %d response", op)
	got, err := decodeResponse(payload, op)
	ref, refErr := refDecodeResponse(payload, op)
	if err == nil && refErr == nil {
		sameOutcome(t, what, normalizeResponse(&got), normalizeResponse(ref), nil, nil)
	} else {
		sameOutcome(t, what, nil, nil, err, refErr)
	}
	diffAppendDecode(t, payload, op, ref, refErr)
	return got, err
}

// diffAppendDecode decodes payload onto a record array that already holds
// records, with room to spare, as a task's lent array arrives: the outcome
// must be the reference's, the held records untouched, the answer's records
// after them (a batch's ends counting from the array's start), and on an
// error nothing left past the held ones.
func diffAppendDecode(t *testing.T, payload []byte, op byte, ref *refResponse, refErr error) {
	t.Helper()
	held := []lake.Record{{Key: "held-0", Data: []byte("x")}, {Key: "held-1"}}
	dst := append(make([]lake.Record, 0, 8), held...)
	keys := announcedGroups(payload, op)
	resp := response{Recs: dst, Ends: make([]int, keys)}
	err := resp.decode(payload, op, keys)
	what := fmt.Sprintf("op %d response onto %d records", op, len(held))
	if !reflect.DeepEqual(resp.Recs[:len(held)], held) {
		t.Fatalf("%s: held records changed: %+v", what, resp.Recs[:len(held)])
	}
	if err != nil || refErr != nil {
		sameOutcome(t, what, nil, nil, err, refErr)
		if len(resp.Recs) != len(held) {
			t.Fatalf("%s: error left %d records, want the %d held", what, len(resp.Recs), len(held))
		}
		for i, r := range resp.Recs[len(held):cap(resp.Recs)] {
			if r.Key != "" || r.Data != nil {
				t.Fatalf("%s: error left record %+v at %d, past the held ones", what, r, len(held)+i)
			}
		}
		return
	}
	var want []lake.Record
	if op == opLookupBatch && ref.Status == statusOK {
		for i, g := range ref.Groups {
			want = append(want, g...)
			if resp.Ends[i] != len(held)+len(want) {
				t.Fatalf("%s: ends[%d] = %d, want %d", what, i, resp.Ends[i], len(held)+len(want))
			}
		}
	} else {
		want = ref.Recs
	}
	sameOutcome(t, what, normalizeRecords(slices.Clone(resp.Recs[len(held):])), normalizeRecords(slices.Clone(want)), nil, nil)
}

// TestDecodeMatchesReference runs the differential property over the sample
// frames and every truncation of them, so it holds in a plain `go test` too.
func TestDecodeMatchesReference(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := req.encode()
		for cut := 0; cut <= len(payload); cut++ {
			diffRequest(t, payload[:cut:cut]) //nolint:errcheck
		}
	}
	for _, tc := range sampleResponses() {
		payload := tc.resp.encode(tc.op)
		for cut := 0; cut <= len(payload); cut++ {
			diffResponse(t, payload[:cut:cut], tc.op) //nolint:errcheck
		}
	}
}

// FuzzNodeFrame throws arbitrary payloads at both decoders. For every input
// the aliasing decoder agrees with the copying reference (same value or same
// error), a request decoded into a reused request and an answer decoded onto
// a non-empty record array included; any input that decodes must re-encode
// and decode back to the same value (round-trip stability); and no input may
// panic or over-allocate.
func FuzzNodeFrame(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(req.encode(), true)
	}
	for _, tc := range sampleResponses() {
		f.Add(tc.resp.encode(tc.op), false)
	}
	f.Add([]byte{}, true)
	f.Add([]byte{opLookupBatch}, true)
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0}, false)
	f.Fuzz(func(t *testing.T, payload []byte, asRequest bool) {
		if asRequest {
			req, err := diffRequest(t, payload)
			if err != nil {
				return
			}
			again, err := decodeRequest(req.encode())
			if err != nil {
				t.Fatalf("re-decode of valid request failed: %v", err)
			}
			if !reflect.DeepEqual(normalizeRequest(again), normalizeRequest(req)) {
				t.Fatalf("request round-trip unstable:\nfirst  %+v\nsecond %+v", req, again)
			}
			return
		}
		// Responses need an op to decode; try each and require stability
		// for whichever ops accept the payload.
		for _, op := range []byte{opCreate, opDrop, opLookupBatch, opLookupRange, opScan, opAppend, opStat} {
			resp, err := diffResponse(t, payload, op)
			if err != nil {
				continue
			}
			again, err := decodeResponse(resp.encode(op), op)
			if err != nil {
				t.Fatalf("op %d: re-decode of valid response failed: %v", op, err)
			}
			if !reflect.DeepEqual(normalizeResponse(&again), normalizeResponse(&resp)) {
				t.Fatalf("op %d: response round-trip unstable:\nfirst  %+v\nsecond %+v", op, resp, again)
			}
		}
	})
}

// sinkConn is a net.Conn that only collects what is written to it.
type sinkConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *sinkConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// TestFrameWriterMatchesReference: the frameWriter's in-place header and
// buffered payload put the same bytes on the wire as the reference peer's
// two writes, frame after frame, including one larger than the buffer.
func TestFrameWriterMatchesReference(t *testing.T) {
	payloads := [][]byte{nil, []byte("x"), sampleRequests()[3].encode(), bytes.Repeat([]byte("ab"), connBufSize)}
	var want bytes.Buffer
	sink := &sinkConn{}
	w := &frameWriter{conn: sink, bw: bufio.NewWriterSize(sink, connBufSize)}
	for _, p := range payloads {
		if err := writeFrame(&want, p); err != nil {
			t.Fatal(err)
		}
		if err := w.write(p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(sink.buf.Bytes(), want.Bytes()) {
		t.Fatalf("frameWriter wrote %d bytes that differ from the reference's %d", sink.buf.Len(), want.Len())
	}
	if err := w.write(make([]byte, MaxFrame+1)); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversize frame: %v, want errFrameTooBig", err)
	}
}
