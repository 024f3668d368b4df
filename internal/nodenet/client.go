package nodenet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
)

// Options tunes one per-node client.
type Options struct {
	// MaxConns bounds the sockets open to the node. Requests are multiplexed
	// over them, so it does not bound requests in flight — the executor's
	// Threads already does — and a socket is not a unit of concurrency:
	// frames written together leave in one write only when they share a
	// socket. Default 1.
	MaxConns int
	// DialTimeout bounds one TCP dial attempt. Default 1s.
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline (dial retries, write, and
	// the wait for the response all fit inside it); a sooner context
	// deadline wins. Default 10s.
	RequestTimeout time.Duration
	// HedgeAfter fixes the hedge delay: an idempotent request still
	// unanswered this long after its frame was written launches a second
	// attempt, first response wins. Zero derives the delay from the observed
	// p95 RPC latency instead (see hedgeDelay). Negative disables hedging.
	HedgeAfter time.Duration
	// HedgeMin floors the derived hedge delay so a string of microsecond
	// RPCs cannot make the client hedge everything. Default 1ms.
	HedgeMin time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 1
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = time.Millisecond
	}
	return o
}

// hedgeWarmup is how many RPCs must complete before a derived hedge delay
// is trusted; below it hedging stays off (unless HedgeAfter pins a delay).
const hedgeWarmup = 32

// hedgeRefresh is how often (in completed RPCs) the derived delay is
// recomputed from the latency histogram.
const hedgeRefresh = 64

var errClosed = errors.New("nodenet: client closed")

// Client is the networked dfs.NodeTransport: it speaks the frame protocol
// to one lakenode server over one multiplexed connection (up to MaxConns) —
// any number of requests in flight per socket, replies matched to callers by
// request id — applies per-request deadlines, retries dials with backoff
// inside the deadline, and hedges slow idempotent requests.
type Client struct {
	addr  string
	opts  Options
	stats *Stats
	dial  func(addr string, timeout time.Duration) (net.Conn, error) // net.DialTimeout outside tests

	closedCh chan struct{} // closed by Close so dial waits fail fast
	reqID    atomic.Uint64
	calls    sync.WaitGroup // logical calls in progress; Close waits them out
	readers  sync.WaitGroup // per-connection reader goroutines

	mu     sync.Mutex
	slots  []slot
	closed bool

	lat        trace.Histogram // per-client latency feed for the hedge delay
	hedgeNs    atomic.Int64    // current derived hedge delay, 0 = not ready
	latSamples atomic.Int64
}

// slot is one of the MaxConns places a connection can live. mc and users
// are guarded by Client.mu.
type slot struct {
	dialing chan struct{} // cap 1, held while dialing: one dial per slot at a time
	mc      *muxConn      // nil until dialed, nil again once the connection fails
	users   int           // attempts assigned here and not yet let go
}

var _ dfs.BatchTransport = (*Client)(nil)

// Dial returns a client for the node at addr. No connection is opened until
// the first request; stats may be nil (or shared across clients).
func Dial(addr string, opts Options, stats *Stats) *Client {
	opts = opts.withDefaults()
	c := &Client{
		addr:     addr,
		opts:     opts,
		stats:    stats,
		dial:     func(addr string, d time.Duration) (net.Conn, error) { return net.DialTimeout("tcp", addr, d) },
		closedCh: make(chan struct{}),
		slots:    make([]slot, opts.MaxConns),
	}
	for i := range c.slots {
		c.slots[i].dialing = make(chan struct{}, 1)
	}
	return c
}

// Close refuses new requests, waits for the calls in progress to return
// (each is bounded by its deadline), then closes every connection and waits
// for its reader, so after Close returns the client holds zero connections.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.closedCh)
	c.calls.Wait()
	// No call is left to dial, so the slots are stable from here on.
	for i := range c.slots {
		c.mu.Lock()
		mc := c.slots[i].mc
		c.mu.Unlock()
		if mc != nil {
			mc.fail(errClosed)
		}
	}
	c.readers.Wait()
	return nil
}

// --- dfs.NodeTransport ---

func (c *Client) CreateFile(ctx context.Context, name string, kind dfs.Kind, partitions int, p lake.Partitioner) error {
	req := &request{Op: opCreate, File: name, Kind: int(kind), Partitions: partitions, Part: p}
	return c.call(ctx, req, &response{})
}

func (c *Client) DropFile(ctx context.Context, name string) error {
	return c.call(ctx, &request{Op: opDrop, File: name}, &response{})
}

// Lookup is AppendLookup onto nil.
func (c *Client) Lookup(ctx context.Context, file string, partition int, key lake.Key) ([]lake.Record, error) {
	return c.AppendLookup(ctx, nil, file, partition, key)
}

// LookupBatch is AppendLookupBatch onto nil, cut into one group per key.
func (c *Client) LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	return dfs.LookupBatch(ctx, c, file, partition, keys)
}

// LookupRange is AppendLookupRange onto nil.
func (c *Client) LookupRange(ctx context.Context, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	return c.AppendLookupRange(ctx, nil, file, partition, lo, hi)
}

// AppendLookup is a one-key opLookupBatch on the wire.
func (c *Client) AppendLookup(ctx context.Context, dst []lake.Record, file string, partition int, key lake.Key) ([]lake.Record, error) {
	keys := [1]lake.Key{key}
	return c.appendCall(ctx, &request{Op: opLookupBatch, File: file, Partition: partition, Keys: keys[:]}, dst, nil)
}

// AppendLookupBatch implements dfs.BatchTransport.
func (c *Client) AppendLookupBatch(ctx context.Context, dst []lake.Record, file string, partition int, keys []lake.Key, ends []int) ([]lake.Record, error) {
	if len(keys) == 0 {
		return dst, nil
	}
	return c.appendCall(ctx, &request{Op: opLookupBatch, File: file, Partition: partition, Keys: keys}, dst, ends)
}

// AppendLookupRange implements dfs.BatchTransport.
func (c *Client) AppendLookupRange(ctx context.Context, dst []lake.Record, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	return c.appendCall(ctx, &request{Op: opLookupRange, File: file, Partition: partition, Lo: lo, Hi: hi}, dst, nil)
}

// appendCall runs req with its answer's records decoded straight onto dst
// (and ends): on an error dst comes back as it was.
func (c *Client) appendCall(ctx context.Context, req *request, dst []lake.Record, ends []int) ([]lake.Record, error) {
	resp := &response{Recs: dst, Ends: ends}
	err := c.call(ctx, req, resp)
	return resp.Recs, err
}

func (c *Client) Scan(ctx context.Context, file string, partition int, fn func(lake.Record) error) error {
	resp := &response{}
	if err := c.call(ctx, &request{Op: opScan, File: file, Partition: partition}, resp); err != nil {
		return err
	}
	for _, r := range resp.Recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (c *Client) Append(ctx context.Context, file string, partition int, recs []lake.Record) error {
	req := &request{Op: opAppend, File: file, Partition: partition, Recs: recs}
	return c.call(ctx, req, &response{})
}

func (c *Client) Stat(ctx context.Context, file string, partition int) (int, int64, error) {
	resp := &response{}
	if err := c.call(ctx, &request{Op: opStat, File: file, Partition: partition}, resp); err != nil {
		return 0, 0, err
	}
	return resp.Records, resp.Bytes, nil
}

// --- request execution ---

// idempotent ops may be hedged: running them twice server-side changes
// nothing. Appends and catalog mutations never hedge.
func idempotent(op byte) bool {
	switch op {
	case opLookupBatch, opLookupRange, opScan, opStat:
		return true
	}
	return false
}

// attempt is one request frame on one connection. A logical call makes one,
// or two when it hedges.
type attempt struct {
	id     uint64
	ch     chan<- reply // the call's channel
	mc     *muxConn
	sent   time.Time // when the frame was written: the hedge and latency clocks start here
	active bool      // launched and not yet settled; touched by the calling goroutine only
}

// gaveUp and lostRace take an attempt's place in its connection's pending
// table once its caller stops waiting — it gave up, or the pair's other
// attempt won — so the reply stays expected and the call can be reused.
var gaveUp, lostRace = new(attempt), new(attempt)

// call is the caller's side of one logical request, pooled: it goes back
// with its channel empty, its timer stopped with nothing left to read (or
// dropped), and no connection holding a pointer to its attempts.
type call struct {
	ch    chan reply  // cap 2: each attempt delivers exactly once
	timer *time.Timer // first the hedge delay, then the request timeout
	armed bool        // timer set and its channel not yet read
	att   [2]attempt  // primary, hedge
	buf   []byte      // the request frame; every write of it copies
}

var callPool = sync.Pool{New: func() any {
	cl := &call{ch: make(chan reply, 2)}
	cl.att[0].ch, cl.att[1].ch = cl.ch, cl.ch
	return cl
}}

// reply is what a connection hands an attempt's caller: the response frame,
// still undecoded, or the error that failed the connection.
type reply struct {
	att     *attempt
	payload []byte
	err     error
}

// call runs one logical request and decodes its answer into resp: the
// winning attempt's only, on the caller's goroutine. A caller that gives up
// (context, deadline) abandons its attempts and leaves the connections to
// everyone else.
func (c *Client) call(ctx context.Context, req *request, resp *response) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClosed
	}
	c.calls.Add(1)
	c.mu.Unlock()
	defer c.calls.Done()

	// Forward the executor's RPC trace identity on the wire (flagCtx frame)
	// so the node attributes its spans to the originating job. Untraced
	// callers leave Ctx zero and the frame stays old-format byte-identical.
	if rc := trace.RPCFrom(ctx); rc.Job != "" {
		req.Ctx = TraceContext{Job: rc.Job, Tenant: rc.Tenant, Stage: max(rc.Stage, 0), Attempt: max(rc.Attempt, 0)}
	}
	cl := callPool.Get().(*call)
	cl.buf = req.appendTo(cl.buf)
	var err error
	if len(cl.buf) > MaxFrame {
		// Checked here, not left to the frame writer: there the error would
		// fail the connection under every other caller.
		err = lake.AsPermanent(fmt.Errorf("nodenet: %s: request: %w (%d bytes)", c.addr, errFrameTooBig, len(cl.buf)))
	} else {
		err = c.run(ctx, cl, req, resp)
		c.letGo(cl, err == nil)
	}
	if cl.armed && !cl.timer.Stop() {
		cl.timer = nil // fired unread: its value may still be on the way into C
	}
	cl.armed = false
	if cap(cl.buf) > maxKeptBuf {
		cl.buf = nil
	}
	callPool.Put(cl)
	return err
}

// run drives cl's attempts to the call's outcome. An idempotent request
// still unanswered a hedge delay after its frame was written is sent again —
// with a fresh request id, on another connection when more than one is open
// — and the first success wins; the loser's reply is counted as a suppressed
// duplicate when it arrives.
func (c *Client) run(ctx context.Context, cl *call, req *request, resp *response) error {
	op, payload := req.Op, cl.buf
	// The request deadline is armed on the call's timer; a sooner context
	// deadline is the context's to signal, and bounds the dial.
	timeout := time.Now().Add(c.opts.RequestTimeout)
	dialBy := timeout
	if d, ok := ctx.Deadline(); ok && d.Before(dialBy) {
		dialBy = d
	}
	primary, hedge := &cl.att[0], &cl.att[1]

	s, mc := c.pick(nil)
	if mc == nil {
		var err error
		if mc, err = c.connect(ctx, s, dialBy); err != nil {
			c.release(s)
			return err // dial failures are transient
		}
	}
	if err := c.launch(primary, mc, payload); err != nil {
		return err
	}

	// One timer serves both waits: first the hedge delay, then the timeout.
	hedgeDue := false
	wait := time.Until(timeout)
	if delay := c.hedgeDelay(); delay > 0 && delay < wait && idempotent(op) {
		hedgeDue, wait = true, delay
	}
	if cl.timer == nil {
		cl.timer = time.NewTimer(wait)
	} else {
		cl.timer.Reset(wait)
	}
	cl.armed = true

	outstanding := 1
	var firstErr error
	for {
		select {
		case r := <-cl.ch:
			outstanding--
			r.att.active = false
			c.release(r.att.mc.slot)
			err := c.settle(r, req, resp)
			if err == nil {
				if r.att == hedge {
					c.stats.hedgeWon()
				}
				return nil
			}
			if firstErr == nil {
				firstErr = err
			}
			// Every launched attempt failed (a primary failing before the
			// hedge timer is not hedged: its error was not slowness).
			if outstanding == 0 {
				return firstErr
			}
		case <-cl.timer.C:
			cl.armed = false
			if !hedgeDue {
				return fmt.Errorf("nodenet: %s: no response within %v", c.addr, c.opts.RequestTimeout)
			}
			hedgeDue = false
			cl.timer.Reset(time.Until(timeout))
			cl.armed = true
			// A hedge never dials: blocking here would delay the primary's
			// answer. It takes another open connection, or shares the
			// primary's when there is none. The primary's frame is already
			// written, so launch re-stamps the same payload in place.
			if hs, hmc := c.pick(primary.mc.slot); hmc == nil {
				c.release(hs) // the primary's connection just failed; its error is on the way
			} else if c.launch(hedge, hmc, payload) == nil {
				c.stats.hedgeFired()
				outstanding++
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// launch sends a's frame on mc, whose slot was already picked for it.
func (c *Client) launch(a *attempt, mc *muxConn, payload []byte) error {
	if err := mc.send(a, payload, c.reqID.Add(1)); err != nil {
		c.release(mc.slot)
		return err
	}
	a.active = true
	return nil
}

// settle turns a delivered reply into the call's result, decoding it into
// resp, and accounts the attempt.
func (c *Client) settle(r reply, req *request, resp *response) error {
	if r.err != nil {
		c.stats.rpcDone(0, true)
		return r.err
	}
	if err := resp.decode(r.payload, req.Op, len(req.Keys)); err != nil {
		// The header passed the reader's checks but the body is not a
		// response to this request: the peer is not speaking our protocol.
		c.stats.rpcDone(0, true)
		err = lake.AsPermanent(fmt.Errorf("nodenet: %s: malformed response: %w", c.addr, err))
		r.att.mc.fail(err)
		return err
	}
	elapsed := time.Since(r.att.sent)
	statusErr := statusToError(resp)
	c.stats.rpcDone(int64(elapsed), statusErr != nil)
	if statusErr == nil {
		c.observeLatency(elapsed)
	}
	return statusErr
}

// letGo abandons whatever attempts of a returning call are still in flight.
// An attempt whose reply was already taken off its connection has it (or is
// about to have it) in the call's channel; it is accounted here instead.
func (c *Client) letGo(cl *call, won bool) {
	for i := range cl.att {
		a := &cl.att[i]
		if !a.active {
			continue
		}
		a.active = false
		c.release(a.mc.slot)
		if a.mc.abandon(a, won) {
			continue // the reader accounts it when the reply comes
		}
		r := <-cl.ch
		c.dropped(r.payload, r.err, won)
	}
}

// dropped accounts an attempt that finished with nobody waiting for it.
func (c *Client) dropped(payload []byte, err error, dup bool) {
	failed := err != nil || payload[0] != statusOK
	c.stats.rpcDropped(failed)
	if dup && !failed {
		c.stats.hedgeDup() // the losing attempt's answer, suppressed
	}
}

// hedgeDelay returns the current hedge delay: the fixed override if set,
// otherwise the p95 of observed RPC latency (recomputed every hedgeRefresh
// completions, floored at HedgeMin), or 0 while hedging is not ready.
func (c *Client) hedgeDelay() time.Duration {
	if c.opts.HedgeAfter != 0 {
		if c.opts.HedgeAfter < 0 {
			return 0
		}
		return c.opts.HedgeAfter
	}
	return time.Duration(c.hedgeNs.Load())
}

// observeLatency feeds the per-client histogram and refreshes the derived
// hedge delay. d runs from frame written to reply in the caller's hands —
// the interval the hedge timer covers.
func (c *Client) observeLatency(d time.Duration) {
	c.lat.RecordDur(d)
	n := c.latSamples.Add(1)
	if n < hedgeWarmup || n%hedgeRefresh != 0 {
		return
	}
	p95 := c.lat.Quantile(0.95)
	if floor := int64(c.opts.HedgeMin); p95 < floor {
		p95 = floor
	}
	c.hedgeNs.Store(p95)
}

// statusToError converts an error status into the Go error class the retry
// machinery expects on this side of the wire.
func statusToError(resp *response) error {
	switch resp.Status {
	case statusOK:
		return nil
	case statusNoFile:
		return fmt.Errorf("%w (remote: %s)", lake.ErrNoSuchFile, resp.Msg)
	case statusNoPartition:
		return fmt.Errorf("%w (remote: %s)", lake.ErrNoSuchPartition, resp.Msg)
	case statusPermanent:
		return lake.AsPermanent(fmt.Errorf("nodenet: remote: %s", resp.Msg))
	default: // statusTransient
		return fmt.Errorf("nodenet: remote: %s", resp.Msg)
	}
}

// --- connections ---

// pick assigns an attempt to a slot and returns it with its connection, if
// it has one. A primary (avoid nil) takes the least-used slot, an open
// connection winning a tie, so a lone caller stays on one socket and
// concurrent callers spread over up to MaxConns. A hedge takes the
// least-used open connection other than avoid, or avoid itself.
func (c *Client) pick(avoid *slot) (*slot, *muxConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *slot
	for i := range c.slots {
		s := &c.slots[i]
		if avoid != nil && (s == avoid || s.mc == nil) {
			continue // a hedge never dials
		}
		if best == nil || s.users < best.users || (s.users == best.users && s.mc != nil && best.mc == nil) {
			best = s
		}
	}
	if best == nil {
		best = avoid
	}
	best.users++
	c.stats.slot(1)
	return best, best.mc
}

func (c *Client) release(s *slot) {
	c.mu.Lock()
	s.users--
	c.mu.Unlock()
	c.stats.slot(-1)
}

// connect returns the slot's connection, dialing it if no other caller has.
func (c *Client) connect(ctx context.Context, s *slot, deadline time.Time) (*muxConn, error) {
	select {
	case s.dialing <- struct{}{}:
	case <-c.closedCh:
		return nil, errClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.dialing }()
	c.mu.Lock()
	mc := s.mc
	c.mu.Unlock()
	if mc != nil {
		return mc, nil
	}
	conn, err := c.dialRetry(ctx, deadline)
	if err != nil {
		return nil, err
	}
	mc = &muxConn{
		c:       c,
		slot:    s,
		conn:    conn,
		w:       frameWriter{conn: conn, timeout: c.opts.RequestTimeout, bw: bufio.NewWriterSize(conn, connBufSize)},
		pending: make(map[uint64]*attempt),
	}
	c.stats.dialed()
	c.mu.Lock()
	s.mc = mc
	c.mu.Unlock()
	// The caller is a call in progress, so Close has not reached
	// readers.Wait yet.
	c.readers.Add(1)
	go mc.readLoop()
	return mc, nil
}

// dialRetry dials the node, retrying refused/unreachable dials with
// exponential backoff until the deadline.
func (c *Client) dialRetry(ctx context.Context, deadline time.Time) (net.Conn, error) {
	backoff := 2 * time.Millisecond
	for {
		d := c.opts.DialTimeout
		if remain := time.Until(deadline); remain < d {
			d = remain
		}
		if d <= 0 {
			return nil, fmt.Errorf("nodenet: dial %s: deadline exhausted", c.addr)
		}
		conn, err := c.dial(c.addr, d)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("nodenet: dial %s: %w", c.addr, err)
		}
		select {
		case <-time.After(backoff):
		case <-c.closedCh:
			return nil, errClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
}

// muxConn is one multiplexed connection: callers register an attempt in
// pending and write its frame through w; one reader goroutine routes each
// reply frame to the attempt that owns its request id. Replies may come back
// in any order.
type muxConn struct {
	c    *Client
	slot *slot
	conn net.Conn
	w    frameWriter

	mu      sync.Mutex
	pending map[uint64]*attempt // sent and unanswered; gaveUp or lostRace once abandoned
	err     error               // set once by fail; the connection is dead from then on
}

// send registers the attempt under id and writes its frame. An error means
// the attempt was never registered; a write failure fails the connection,
// which delivers the error to this attempt along with every other one.
func (mc *muxConn) send(a *attempt, payload []byte, id uint64) error {
	a.id, a.mc = id, mc
	setRequestID(payload, id)
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return err
	}
	mc.pending[id] = a
	mc.mu.Unlock()
	if err := mc.w.write(payload); err != nil {
		mc.fail(fmt.Errorf("nodenet: write: %w", err))
	}
	a.sent = time.Now()
	return nil
}

// abandon marks a's reply as unwanted. It reports false when the reply has
// already been taken out of pending, i.e. is in (or on its way into) the
// call's channel.
func (mc *muxConn) abandon(a *attempt, dup bool) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.pending[a.id] != a {
		return false
	}
	stand := gaveUp
	if dup {
		stand = lostRace
	}
	mc.pending[a.id] = stand
	return true
}

func (mc *muxConn) readLoop() {
	defer mc.c.readers.Done()
	fr := frameReader{r: bufio.NewReaderSize(mc.conn, connBufSize)}
	for {
		payload, err := fr.next(nil) // a reply's frame is owned by what it decodes to
		if err != nil && !errors.Is(err, errFrameTooBig) {
			mc.fail(fmt.Errorf("nodenet: read: %w", err)) // connection-level: transient
			return
		}
		if err == nil {
			err = mc.route(payload)
		}
		if err != nil {
			// The peer is not speaking our protocol; retrying cannot help.
			mc.fail(lake.AsPermanent(fmt.Errorf("nodenet: %s: %w", mc.c.addr, err)))
			return
		}
	}
}

// route hands one reply frame to the attempt that owns its id. Any frame
// that cannot be a reply to something sent on this connection is a protocol
// violation: with replies out of order it cannot be blamed on one request,
// so the error fails the connection and reaches every pending caller.
func (mc *muxConn) route(payload []byte) error {
	if len(payload) < 9 {
		return fmt.Errorf("malformed response: %d-byte frame has no status and id", len(payload))
	}
	status, id := payload[0], binary.BigEndian.Uint64(payload[1:9])
	if status > statusNoPartition {
		return fmt.Errorf("malformed response: unknown status %d", status)
	}
	mc.mu.Lock()
	a, ok := mc.pending[id]
	delete(mc.pending, id)
	mc.mu.Unlock()
	switch {
	case a == gaveUp || a == lostRace:
		// A late reply to a caller that gave up, or a hedge's loser.
		mc.c.dropped(payload, nil, a == lostRace)
	case ok:
		a.ch <- reply{att: a, payload: payload}
	case id == 0 && status == statusPermanent:
		// The server could not decode one of our requests — it cannot say
		// which — and is dropping the connection.
		d := &decoder{buf: payload, off: 9}
		return fmt.Errorf("server rejected a request frame: %s", d.string())
	default:
		return fmt.Errorf("response id %d was never issued on this connection", id)
	}
	return nil
}

// fail kills the connection once: the first error sticks, the socket is
// closed, the slot is freed for a fresh dial, and every attempt still
// pending gets the error.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()

	mc.conn.Close()
	mc.c.stats.connClosed()
	mc.c.mu.Lock()
	if mc.slot.mc == mc {
		mc.slot.mc = nil
	}
	mc.c.mu.Unlock()
	for _, a := range pending {
		if a == gaveUp || a == lostRace {
			mc.c.dropped(nil, err, false)
		} else {
			a.ch <- reply{att: a, err: err}
		}
	}
}
