package nodenet

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/lake"
)

var benchSink atomic.Int64 // keeps results live; callers run concurrently

// benchFrames is the codec benchmark's message pair: a 64-key lookup request
// carrying tc and its 64-group reply, a record per key.
func benchFrames(tc TraceContext) (*request, *response) {
	keys := make([]lake.Key, 64)
	resp := &response{Status: statusOK, ReqID: 7, Recs: make([]lake.Record, 64), Ends: make([]int, 64)}
	for i := range keys {
		keys[i] = fmt.Sprintf("order-%08d", i)
		resp.Recs[i] = lake.Record{Key: keys[i], Data: make([]byte, 96)}
		resp.Ends[i] = i + 1
	}
	return &request{Op: opLookupBatch, ReqID: 7, File: "orders", Partition: 3, Keys: keys, Ctx: tc}, resp
}

// codecRig is what the two ends lend a frame's codec: the call's and the
// worker's encode buffers, the server's pooled request, and the caller's
// record array and ends.
type codecRig struct {
	reqBuf, respBuf []byte
	req             request
	got             response
}

// roundTrip encodes req and decodes it into the rig's request, then encodes
// resp, its answer, and decodes it onto the rig's record array.
func (r *codecRig) roundTrip(req *request, resp *response) error {
	r.reqBuf = req.appendTo(r.reqBuf)
	if err := r.req.decode(r.reqBuf); err != nil {
		return err
	}
	r.respBuf = resp.appendTo(r.respBuf, req.Op)
	n := len(r.req.Keys)
	r.got.Recs, r.got.Ends = r.got.Recs[:0], slices.Grow(r.got.Ends[:0], n)[:n]
	return r.got.decode(r.respBuf, req.Op, n)
}

// BenchmarkFrameEncodeDecode prices the codec alone: one 64-key lookup
// request and its 64-group response, encoded and decoded into what the two
// ends lend, with and without the trace-context block on the request.
func BenchmarkFrameEncodeDecode(b *testing.B) {
	for name, tc := range map[string]TraceContext{
		"plain": {},
		"ctx":   {Job: "q5-asia-0007", Tenant: "bench", Stage: 2, Attempt: 1},
	} {
		req, resp := benchFrames(tc)
		b.Run(name, func(b *testing.B) {
			var rig codecRig
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := rig.roundTrip(req, resp); err != nil {
					b.Fatal(err)
				}
				benchSink.Add(int64(len(rig.req.Keys) + len(rig.got.Recs)))
			}
		})
	}
}

// BenchmarkClientRTT prices one point lookup over a loopback server: a lone
// caller (serial) and 16 or 256 callers sharing the client, with hedging
// off and with the derived hedge delay on. writes/op and srv-writes/op are
// socket writes per lookup on the client's and the server's end: exactly 1
// for a lone caller; measured on two cores with hedging off, 0.16 and 0.15
// at 16 callers and 0.06 and 0.05 at 256 (EXPERIMENTS.md "PR 22").
func BenchmarkClientRTT(b *testing.B) {
	const keys = 1024
	addr, cluster, srvWrites := startCountedNode(b)
	seedKeys(b, cluster, keys)
	for _, hedge := range []struct {
		name  string
		after time.Duration
	}{{"hedge-off", -1}, {"hedge-on", 0}} {
		for _, callers := range []int{1, 16, 256} {
			name := fmt.Sprintf("%s/parallel-%d", hedge.name, callers)
			if callers == 1 {
				name = hedge.name + "/serial"
			}
			b.Run(name, func(b *testing.B) {
				c := Dial(addr, Options{HedgeAfter: hedge.after}, nil)
				defer c.Close()
				writes := countWrites(c)
				lookup := func(i int) {
					recs, err := c.Lookup(context.Background(), "f", 0, fmt.Sprintf("k%d", i%keys))
					if err != nil {
						b.Error(err)
					}
					benchSink.Add(int64(len(recs)))
				}
				for i := 0; i < 2*hedgeRefresh; i++ { // dial, and warm the hedge delay up
					lookup(i)
				}
				writes.Store(0)
				srvWrites.Store(0)
				b.ReportAllocs()
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < callers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)); i <= b.N; i = int(next.Add(1)) {
							lookup(i)
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/op")
				b.ReportMetric(float64(srvWrites.Load())/float64(b.N), "srv-writes/op")
			})
		}
	}
}
