// Package nodenet is the networked data plane behind the dfs.NodeTransport
// seam: a compact length-prefixed batch RPC over TCP. The wire unit is the
// PR 2 LookupBatch shape — a whole pointer batch of keys travels in one
// frame and their record groups come back in one frame — so the executor's
// coalescing translates directly into fewer round trips.
//
// Framing: every message is a 4-byte big-endian payload length followed by
// the payload, capped at MaxFrame. Requests carry an op byte and a request
// id; responses echo the id with a status byte, which is all that ties a
// reply to its request: a connection carries any number of requests at once
// and replies come back in completion order. Strings and byte slices are
// uvarint-length-prefixed; small integers are uvarints.
//
// Error classification is part of the protocol contract (see ISSUE 7 /
// DESIGN.md §10): connection-level failures (refused, reset, timeout, short
// read) stay transient so the executor's retry machinery re-drives them,
// while a *malformed* frame — oversize length prefix, undecodable payload,
// a response id never issued on the connection, unknown status — is marked
// lake.AsPermanent, because resending the same bytes can never heal a
// protocol bug.
package nodenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"lakeharbor/internal/lake"
)

// MaxFrame bounds a frame payload (64 MiB). A length prefix above it is a
// protocol error, classified permanent: it means the peer is not speaking
// this protocol (or the stream desynchronised), not that the network
// hiccupped.
const MaxFrame = 64 << 20

// errFrameTooBig marks an oversize length prefix. readFrame returns it
// verbatim so the client can classify it permanent.
var errFrameTooBig = errors.New("nodenet: frame exceeds MaxFrame")

// Request ops. Point lookups do not get their own op: the client sends a
// one-key opLookupBatch, keeping the wire surface minimal.
const (
	opCreate byte = 1 + iota
	opDrop
	opLookupBatch
	opLookupRange
	opScan
	opAppend
	opStat
)

// flagCtx is the trace-context version bit on the request op byte. When set,
// a trace-context block (job, stage, tenant, attempt) sits between the
// request id and the file name; when clear the frame is byte-identical to
// the pre-context wire format, so old and new peers interoperate as long as
// the sender carries no context. An old server receiving a flagged frame
// rejects it as an unknown op (statusPermanent) rather than misparsing it.
const flagCtx byte = 0x80

// TraceContext is the optional per-request trace identity carried on the
// wire: which job caused this RPC, from which stage, for which tenant, and
// on which retry attempt. The zero value means "no context" and encodes
// nothing.
type TraceContext struct {
	Job     string
	Tenant  string
	Stage   int
	Attempt int
}

// Response statuses. The numeric values are wire format — do not reorder.
const (
	statusOK byte = iota
	statusTransient
	statusPermanent
	statusNoFile
	statusNoPartition
)

// Partitioner wire tags (same scheme as the snapshot format).
const (
	partHash  byte = 0
	partRange byte = 1
)

// maxSaneCount bounds decoded collection lengths so a hostile or corrupt
// count cannot drive a huge allocation before the payload bound catches it.
const maxSaneCount = 1 << 24

// writeFrame sends one length-prefixed payload.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w (%d bytes)", errFrameTooBig, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed payload. Short reads surface as the
// underlying I/O error (transient); an oversize prefix returns
// errFrameTooBig (permanent at the client).
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w (%d bytes)", errFrameTooBig, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// connBufSize sizes the buffered reader and writer each end keeps per
// connection: room for a few hundred point-lookup frames per syscall.
const connBufSize = 32 << 10

// frameWriter lets any number of goroutines write frames to one connection.
// A frame goes into the shared buffer, and the writer that finds nobody
// queued behind it flushes: a lone frame leaves at once (there is no timer),
// a burst of N frames leaves in about one syscall.
type frameWriter struct {
	queued atomic.Int32 // writers holding or waiting for mu
	mu     sync.Mutex
	bw     *bufio.Writer
}

// write queues one frame. An error is sticky (bufio.Writer keeps it), so the
// connection is finished for every later writer too.
func (w *frameWriter) write(payload []byte) error {
	w.queued.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	err := writeFrame(w.bw, payload)
	if w.queued.Add(-1) == 0 && err == nil {
		err = w.bw.Flush()
	}
	return err
}

// encoder builds a payload in memory; nothing it writes can fail.
type encoder struct{ buf []byte }

func (e *encoder) byte(b byte)  { e.buf = append(e.buf, b) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// decoder consumes a payload; the first failure sticks and every later read
// returns zero values, so call sites stay linear and check err once.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("nodenet: %s at offset %d", msg, d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// count decodes a collection length and bounds it.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > maxSaneCount || v > uint64(len(d.buf)-d.off) {
		// Every collection element takes at least one payload byte, so a
		// count beyond the remaining payload is provably corrupt.
		d.fail("absurd collection count")
		return 0
	}
	return int(v)
}

// smallInt decodes a bounded non-negative integer (stage/attempt ordinals);
// anything beyond maxSaneCount is provably corrupt.
func (d *decoder) smallInt(what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > maxSaneCount {
		d.fail("absurd " + what)
		return 0
	}
	return int(v)
}

func (d *decoder) string() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) bytes() []byte {
	n := d.count()
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated bytes")
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

// finish reports a decode error if one occurred or if trailing bytes remain
// (a frame must be consumed exactly — slack means desync).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("nodenet: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}

// request is the decoded form of a request frame. Only the fields the op
// uses are populated.
type request struct {
	Op    byte
	ReqID uint64
	Ctx   TraceContext // optional; encoded only when non-zero (flagCtx)

	File      string // all ops
	Partition int    // data ops

	Kind       int              // opCreate
	Partitions int              // opCreate
	Part       lake.Partitioner // opCreate

	Keys   []lake.Key    // opLookupBatch
	Lo, Hi lake.Key      // opLookupRange
	Recs   []lake.Record // opAppend
}

// setRequestID re-stamps an encoded request (the id sits right after the op
// byte), so a hedge can resend the primary's payload under its own id.
func setRequestID(payload []byte, id uint64) {
	binary.BigEndian.PutUint64(payload[1:9], id)
}

// sizeHint is the encoded length of a lookup or append, slightly
// over-estimated (every length prefix counted at 5 bytes), so encode
// allocates its buffer once. A range partitioner's bounds are not counted;
// opCreate may still grow.
func (r *request) sizeHint() int {
	n := 64 + len(r.File) + len(r.Ctx.Job) + len(r.Ctx.Tenant) + len(r.Lo) + len(r.Hi)
	for _, k := range r.Keys {
		n += len(k) + 5
	}
	for _, rec := range r.Recs {
		n += len(rec.Key) + len(rec.Data) + 10
	}
	return n
}

func (r *request) encode() []byte {
	e := &encoder{buf: make([]byte, 0, r.sizeHint())}
	op := r.Op
	hasCtx := r.Ctx != (TraceContext{})
	if hasCtx {
		op |= flagCtx
	}
	e.byte(op)
	e.u64(r.ReqID)
	if hasCtx {
		e.string(r.Ctx.Job)
		e.uvarint(uint64(r.Ctx.Stage))
		e.string(r.Ctx.Tenant)
		e.uvarint(uint64(r.Ctx.Attempt))
	}
	e.string(r.File)
	switch r.Op {
	case opCreate:
		e.uvarint(uint64(r.Kind))
		e.uvarint(uint64(r.Partitions))
		encodePartitioner(e, r.Part)
	case opDrop:
		// file name only
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

func decodeRequest(payload []byte) (*request, error) {
	d := &decoder{buf: payload}
	raw := d.byte()
	r := &request{Op: raw &^ flagCtx, ReqID: d.u64()}
	if raw&flagCtx != 0 {
		r.Ctx.Job = d.string()
		r.Ctx.Stage = d.smallInt("trace stage")
		r.Ctx.Tenant = d.string()
		r.Ctx.Attempt = d.smallInt("trace attempt")
	}
	r.File = d.string()
	switch r.Op {
	case opCreate:
		r.Kind = int(d.uvarint())
		r.Partitions = int(d.uvarint())
		r.Part = decodePartitioner(d)
	case opDrop:
	case opLookupBatch:
		r.Partition = int(d.uvarint())
		n := d.count()
		r.Keys = make([]lake.Key, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Keys[i] = d.string()
		}
	case opLookupRange:
		r.Partition = int(d.uvarint())
		r.Lo = d.string()
		r.Hi = d.string()
	case opScan, opStat:
		r.Partition = int(d.uvarint())
	case opAppend:
		r.Partition = int(d.uvarint())
		r.Recs = decodeRecords(d)
	default:
		d.fail(fmt.Sprintf("unknown op %d", r.Op))
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// response is the decoded form of a response frame. The body layout depends
// on the op it answers, so decodeResponse takes the op.
type response struct {
	Status byte
	ReqID  uint64
	Msg    string // error statuses

	Groups  [][]lake.Record // opLookupBatch: one group per key
	Recs    []lake.Record   // opLookupRange, opScan
	Records int             // opStat
	Bytes   int64           // opStat
}

func (r *response) encode(op byte) []byte {
	e := &encoder{}
	e.byte(r.Status)
	e.u64(r.ReqID)
	if r.Status != statusOK {
		e.string(r.Msg)
		return e.buf
	}
	switch op {
	case opLookupBatch:
		e.uvarint(uint64(len(r.Groups)))
		for _, g := range r.Groups {
			encodeRecords(e, g)
		}
	case opLookupRange, opScan:
		encodeRecords(e, r.Recs)
	case opStat:
		e.uvarint(uint64(r.Records))
		e.uvarint(uint64(r.Bytes))
	}
	return e.buf
}

func decodeResponse(payload []byte, op byte) (*response, error) {
	d := &decoder{buf: payload}
	r := &response{Status: d.byte(), ReqID: d.u64()}
	if d.err == nil && r.Status > statusNoPartition {
		d.fail(fmt.Sprintf("unknown status %d", r.Status))
	}
	if r.Status != statusOK {
		r.Msg = d.string()
		if err := d.finish(); err != nil {
			return nil, err
		}
		return r, nil
	}
	switch op {
	case opLookupBatch:
		n := d.count()
		r.Groups = make([][]lake.Record, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Groups[i] = decodeRecords(d)
		}
	case opLookupRange, opScan:
		r.Recs = decodeRecords(d)
	case opStat:
		r.Records = int(d.uvarint())
		b := d.uvarint()
		if d.err == nil && b > math.MaxInt64 {
			d.fail("stat bytes overflow")
		}
		r.Bytes = int64(b)
	case opCreate, opDrop, opAppend:
		// empty OK body
	default:
		d.fail(fmt.Sprintf("unknown op %d", op))
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

func encodeRecords(e *encoder, recs []lake.Record) {
	e.uvarint(uint64(len(recs)))
	for _, r := range recs {
		e.string(r.Key)
		e.bytes(r.Data)
	}
}

func decodeRecords(d *decoder) []lake.Record {
	n := d.count()
	if d.err != nil {
		return nil
	}
	recs := make([]lake.Record, n)
	for i := 0; i < n && d.err == nil; i++ {
		recs[i] = lake.Record{Key: d.string(), Data: d.bytes()}
	}
	return recs
}

func encodePartitioner(e *encoder, p lake.Partitioner) {
	switch p := p.(type) {
	case lake.RangePartitioner:
		e.byte(partRange)
		e.uvarint(uint64(len(p.Bounds)))
		for _, b := range p.Bounds {
			e.string(b)
		}
	default:
		// Hash is the catch-all: an exotic partitioner degrades to hash on
		// the remote side, which only affects routing locality, never
		// correctness (the owner resolves partitions before the RPC).
		e.byte(partHash)
	}
}

func decodePartitioner(d *decoder) lake.Partitioner {
	switch tag := d.byte(); tag {
	case partHash:
		return lake.HashPartitioner{}
	case partRange:
		n := d.count()
		bounds := make([]lake.Key, n)
		for i := 0; i < n && d.err == nil; i++ {
			bounds[i] = d.string()
		}
		return lake.RangePartitioner{Bounds: bounds}
	default:
		d.fail(fmt.Sprintf("unknown partitioner tag %d", tag))
		return nil
	}
}
