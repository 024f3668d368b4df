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
	"net"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

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

// frameReader reads frames off one connection. The header lands in its own
// scratch, and the payload in the buffer the caller lends, or a fresh one
// when it is too small. The client lends none: a reply's decoded records
// alias its frame and own it from then on. The server lends each request's
// frame from its request pool and takes it back once the reply is written.
type frameReader struct {
	r   io.Reader
	hdr [4]byte
}

// next reads one length-prefixed payload into buf's array when it fits.
// Short reads surface as the underlying I/O error (transient); an oversize
// prefix returns errFrameTooBig (permanent at the client).
func (fr *frameReader) next(buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w (%d bytes)", errFrameTooBig, n)
	}
	payload := buf[:0]
	if uint32(cap(buf)) < n {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// connBufSize sizes the buffered reader and writer each end keeps per
// connection: a point lookup's request is ~30 bytes and its reply ~130, so
// a burst of a couple of hundred replies still fits one write.
const connBufSize = 32 << 10

// maxKeptBuf is the largest encode buffer a pooled call or a server worker
// keeps for its next frame: a 64-key batch or its reply fits, and a bulk
// append or scan does not stay pinned behind a parked goroutine.
const maxKeptBuf = 16 << 10

// frameWriter lets any number of goroutines write frames to one connection,
// and is the flush rule of both ends. The writer that finds no burst open
// opens one: it buffers its frame, yields the processor once so that every
// goroutine already runnable with a frame for this peer buffers it too, then
// flushes what accumulated; the others only buffer. There is no timer: a lone
// frame yields to nobody and leaves in its own write; 256 concurrent point
// lookups measure 0.06 writes per frame on either end (BenchmarkClientRTT).
type frameWriter struct {
	conn    net.Conn      // bw's destination
	timeout time.Duration // write deadline, pushed once per burst; 0 = none

	mu   sync.Mutex
	bw   *bufio.Writer
	open bool // a burst is open: its opener has yet to flush
}

// write queues one frame, and flushes the burst if this writer opened it. An
// error is sticky (bufio.Writer keeps it): whoever sees it — the opener, or a
// writer whose frame overflowed the buffer — must fail the connection, for
// every caller with a frame in the buffer.
func (w *frameWriter) write(payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w (%d bytes)", errFrameTooBig, len(payload))
	}
	w.mu.Lock()
	opener := !w.open
	if opener {
		w.open = true
		if w.timeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.timeout)) //nolint:errcheck
		}
	}
	_, err := w.bw.Write(binary.BigEndian.AppendUint32(w.bw.AvailableBuffer(), uint32(len(payload))))
	if err == nil {
		_, err = w.bw.Write(payload)
	}
	w.mu.Unlock()
	if !opener || err != nil {
		return err
	}
	runtime.Gosched()
	w.mu.Lock()
	w.open = false
	err = w.bw.Flush()
	w.mu.Unlock()
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
//
// Strings and byte slices it returns alias buf — a reply's frame is never
// written again, and a request's is not reused until its reply is written —
// unless copy is set: what a node stores must not pin or share a network
// buffer.
type decoder struct {
	buf  []byte
	off  int
	err  error
	copy bool
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
	b := d.buf[d.off : d.off+n]
	d.off += n
	if d.copy || n == 0 {
		return string(b)
	}
	return unsafe.String(&b[0], n)
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
	b := d.buf[d.off : d.off+n : d.off+n] // capped: an append by the holder reallocates
	d.off += n
	if d.copy {
		b = append(make([]byte, 0, n), b...)
	}
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
//
// On the server a request is lent (Server.handleConn): the reader decodes
// each frame into one from reqPool, and the worker that answers it puts it
// back once the reply is written, keeping its frame, key list and the record
// array and ends its answer was built in for the next request.
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

	// Server side only.
	frame []byte        // the payload the fields alias (idempotent ops)
	recs  []lake.Record // the answer's records
	ends  []int         // the answer's per-key ends into recs
}

// setRequestID re-stamps an encoded request (the id sits right after the op
// byte), so a hedge can resend the primary's payload under its own id.
func setRequestID(payload []byte, id uint64) {
	binary.BigEndian.PutUint64(payload[1:9], id)
}

// sizeHint is the encoded length of a lookup or append, slightly
// over-estimated (every length prefix counted at 5 bytes), so appendTo sizes
// its buffer once. A range partitioner's bounds are not counted; opCreate
// may still grow.
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

// appendTo encodes r over buf, reusing its array when it is large enough.
func (r *request) appendTo(buf []byte) []byte {
	e := &encoder{buf: slices.Grow(buf[:0], r.sizeHint())}
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

// decode decodes payload into r, reusing r's key list and keeping its
// server-side buffers; every other field is overwritten.
func (r *request) decode(payload []byte) error {
	*r = request{Keys: r.Keys[:0], frame: r.frame, recs: r.recs, ends: r.ends}
	d := &decoder{buf: payload}
	raw := d.byte()
	r.Op, r.ReqID = raw&^flagCtx, d.u64()
	d.copy = !idempotent(r.Op) // creates, drops and appends leave something behind
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
		if n > cap(r.Keys) {
			r.Keys = make([]lake.Key, 0, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			r.Keys = append(r.Keys, d.string())
		}
	case opLookupRange:
		r.Partition = int(d.uvarint())
		r.Lo = d.string()
		r.Hi = d.string()
	case opScan, opStat:
		r.Partition = int(d.uvarint())
	case opAppend:
		r.Partition = int(d.uvarint())
		r.Recs = decodeRecords(d, nil)
	default:
		d.fail(fmt.Sprintf("unknown op %d", r.Op))
	}
	return d.finish()
}

// response is the decoded form of a response frame. The body layout depends
// on the op it answers, so decode takes the op.
type response struct {
	Status byte
	ReqID  uint64
	Msg    string // error statuses

	// Recs holds an opLookupRange's or opScan's records, and every group of
	// an opLookupBatch, key after key, with Ends[i] the length of Recs
	// after key i's.
	Recs    []lake.Record
	Ends    []int
	Records int   // opStat
	Bytes   int64 // opStat
}

// appendTo encodes r, the answer to an op request, over buf. It is not sized
// first: a server worker's buffer outlives the frame and has grown already.
func (r *response) appendTo(buf []byte, op byte) []byte {
	e := &encoder{buf: buf[:0]}
	e.byte(r.Status)
	e.u64(r.ReqID)
	if r.Status != statusOK {
		e.string(r.Msg)
		return e.buf
	}
	switch op {
	case opLookupBatch:
		e.uvarint(uint64(len(r.Ends)))
		start := 0
		for _, end := range r.Ends {
			encodeRecords(e, r.Recs[start:end])
			start = end
		}
	case opLookupRange, opScan:
		encodeRecords(e, r.Recs)
	case opStat:
		e.uvarint(uint64(r.Records))
		e.uvarint(uint64(r.Bytes))
	}
	return e.buf
}

// decode decodes a response frame to an op into r. An OK answer's records
// are appended onto r.Recs — a batch's key after key, and when r.Ends is
// non-nil r.Ends[i] set to the length after key i's — so a caller that lends
// Recs and Ends gets them in its own arrays. A batch answer must carry one
// group per key of its request, which is checked before anything is
// appended. On error r.Recs is back at its own array and length with nothing
// left past it, also when a group grew it onto a new array partway through.
func (r *response) decode(payload []byte, op byte, keys int) error {
	d := &decoder{buf: payload}
	r.Status, r.ReqID = d.byte(), d.u64()
	if d.err == nil && r.Status > statusNoPartition {
		d.fail(fmt.Sprintf("unknown status %d", r.Status))
	}
	if r.Status != statusOK {
		r.Msg = d.string()
		return d.finish()
	}
	// kept is the caller's array and written how far records were appended
	// into it: growth moves r.Recs to a new array (it never shrinks, so an
	// unchanged capacity means the same array) and leaves kept behind.
	kept, written := r.Recs, len(r.Recs)
	switch op {
	case opLookupBatch:
		groups := d.count()
		if d.err == nil && groups != keys {
			d.fail(fmt.Sprintf("batch answer has %d groups for %d keys", groups, keys))
		}
		for i := 0; i < groups && d.err == nil; i++ {
			r.Recs = decodeRecords(d, r.Recs)
			if cap(r.Recs) == cap(kept) {
				written = len(r.Recs)
			}
			if r.Ends != nil {
				r.Ends[i] = len(r.Recs)
			}
		}
	case opLookupRange, opScan:
		r.Recs = decodeRecords(d, r.Recs)
		if cap(r.Recs) == cap(kept) {
			written = len(r.Recs)
		}
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
		clear(kept[len(kept):written])
		r.Recs = kept
		return err
	}
	return nil
}

func encodeRecords(e *encoder, recs []lake.Record) {
	e.uvarint(uint64(len(recs)))
	for _, r := range recs {
		e.string(r.Key)
		e.bytes(r.Data)
	}
}

// decodeRecords appends one counted record list to dst.
func decodeRecords(d *decoder, dst []lake.Record) []lake.Record {
	n := d.count()
	if d.err != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n && d.err == nil; i++ {
		dst = append(dst, lake.Record{Key: d.string(), Data: d.bytes()})
	}
	return dst
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
