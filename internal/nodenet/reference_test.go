package nodenet

// The reference peer: the copying decoders, the per-group reply form and
// its encoder, and the unbuffered, two-write frame I/O that were the
// production code before decoded messages aliased their frame, replies
// decoded onto the caller's array and the frameWriter wrote headers in
// place. They share no logic with what replaced them beyond the codec's
// integer and string primitives — every string and byte slice is copied out
// of the payload, every group gets its own array — which is what makes
// "aliasing decode ≡ reference decode" (FuzzNodeFrame) and the hand-rolled
// peers of the compat tests meaningful.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lakeharbor/internal/lake"
)

// encode is appendTo into a buffer of the frame's own, as every frame was
// encoded before calls and server workers kept theirs.
func (r *request) encode() []byte { return r.appendTo(nil) }

func (r *response) encode(op byte) []byte { return r.appendTo(nil, op) }

// decodeRequest decodes payload into a request of its own.
func decodeRequest(payload []byte) (*request, error) {
	r := new(request)
	if err := r.decode(payload); err != nil {
		return nil, err
	}
	return r, nil
}

// refResponse is a reply in the reference's form: a batch answer holds one
// record slice per key.
type refResponse struct {
	Status byte
	ReqID  uint64
	Msg    string

	Groups  [][]lake.Record // opLookupBatch
	Recs    []lake.Record   // opLookupRange, opScan
	Records int             // opStat
	Bytes   int64           // opStat
}

// encode is the reference reply encoder: a count, then each group's records.
func (r *refResponse) encode(op byte) []byte {
	e := &encoder{}
	e.byte(r.Status)
	e.u64(r.ReqID)
	if r.Status != statusOK {
		e.string(r.Msg)
		return e.buf
	}
	records := func(recs []lake.Record) {
		e.uvarint(uint64(len(recs)))
		for _, rec := range recs {
			e.string(rec.Key)
			e.bytes(rec.Data)
		}
	}
	switch op {
	case opLookupBatch:
		e.uvarint(uint64(len(r.Groups)))
		for _, g := range r.Groups {
			records(g)
		}
	case opLookupRange, opScan:
		records(r.Recs)
	case opStat:
		e.uvarint(uint64(r.Records))
		e.uvarint(uint64(r.Bytes))
	}
	return e.buf
}

// decodeResponse is the production decoder in the reference's form: the
// answer decoded onto nil, a batch's cut into one group per key. The key
// count it decodes for is the one the answer announces.
func decodeResponse(payload []byte, op byte) (refResponse, error) {
	keys := announcedGroups(payload, op)
	resp := response{Ends: make([]int, keys)}
	if err := resp.decode(payload, op, keys); err != nil {
		return refResponse{}, err
	}
	r := refResponse{Status: resp.Status, ReqID: resp.ReqID, Msg: resp.Msg, Records: resp.Records, Bytes: resp.Bytes}
	if op == opLookupBatch && resp.Status == statusOK {
		r.Groups = lake.Groups(resp.Recs, resp.Ends)
	} else {
		r.Recs = resp.Recs
	}
	return r, nil
}

// announcedGroups is the group count an OK batch answer announces, 0 when
// there is none to read (the decoder then fails where the count is).
func announcedGroups(payload []byte, op byte) int {
	if op != opLookupBatch || len(payload) < 9 || payload[0] != statusOK {
		return 0
	}
	d := &decoder{buf: payload, off: 9}
	return d.count()
}

// writeFrame sends one length-prefixed payload: header and payload in
// separate writes, as the pre-multiplexing peers did.
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

// readFrame reads one length-prefixed payload straight off r.
func readFrame(r io.Reader) ([]byte, error) {
	return (&frameReader{r: r}).next(nil)
}

// refDecoder is decoder with the copying string and bytes it used to have.
type refDecoder struct{ decoder }

func (d *refDecoder) string() string {
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

func (d *refDecoder) bytes() []byte {
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

func refDecodeRequest(payload []byte) (*request, error) {
	d := &refDecoder{decoder{buf: payload}}
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
		r.Part = refDecodePartitioner(d)
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
		r.Recs = refDecodeRecords(d)
	default:
		d.fail(fmt.Sprintf("unknown op %d", r.Op))
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

func refDecodeResponse(payload []byte, op byte) (*refResponse, error) {
	d := &refDecoder{decoder{buf: payload}}
	r := &refResponse{Status: d.byte(), ReqID: d.u64()}
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
			r.Groups[i] = refDecodeRecords(d)
		}
	case opLookupRange, opScan:
		r.Recs = refDecodeRecords(d)
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

func refDecodeRecords(d *refDecoder) []lake.Record {
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

func refDecodePartitioner(d *refDecoder) lake.Partitioner {
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
