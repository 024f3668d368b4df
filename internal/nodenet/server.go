package nodenet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// Server speaks the node RPC protocol over TCP and executes decoded requests
// against a dfs.NodeTransport backend — normally dfs.Local over a
// single-node cluster (the lakenode binary), but any transport works, which
// is how tests stack a chaos wrapper under a real socket.
//
// Connections are multiplexed: one goroutine per connection decodes request
// frames and hands each to a worker of the connection's own set — a parked
// one if there is one, a new one otherwise, up to maxConnInflight — and
// replies are written as requests finish — in completion order, not arrival
// order — each echoing its request id. A request never queues behind a busy
// worker, so a slow one delays nobody behind it, and a hedged request is an
// independent execution even when it shares its primary's socket. A client
// that sends one request at a time sees the old strictly ordered exchange.
type Server struct {
	backend dfs.NodeTransport
	logf    func(format string, args ...any)
	obs     atomic.Pointer[ServerObs] // nil unless Observe; nil-safe recording

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	wg       sync.WaitGroup

	served atomic.Int64 // requests answered, for tests/ops
}

// NewServer wraps the backend. logf receives per-connection error lines; nil
// means log.Printf.
func NewServer(backend dfs.NodeTransport, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = log.Printf
	}
	return &Server{backend: backend, logf: logf, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts the accept loop in the
// background. The bound address is returned so callers can use port 0.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ln.Addr(), s.Serve(ln)
}

// Serve starts the accept loop on ln in the background; the server owns ln
// from here on, and closes it on Drain or Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("nodenet: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Served returns how many requests the server has answered.
func (s *Server) Served() int64 { return s.served.Load() }

// Observe attaches an observability registry; every subsequently served
// request is recorded into it. Safe to call while the server is listening —
// connections opened before the call are counted from their next request.
// The registry remembers the server, so its Collect reports the served
// count and the draining flag.
func (s *Server) Observe(o *ServerObs) {
	if o != nil {
		o.srv.Store(s)
	}
	s.obs.Store(o)
}

// Draining reports whether the server is in graceful drain (the sidecar's
// /readyz flips to 503 on it).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: it stops accepting, lets every
// in-flight request finish and write its response, then closes. Each
// connection's frame reader is poked with an immediate read deadline so its
// blocked read returns; requests already executing are untouched (only reads
// are deadlined) and the connection closes after the last of them has
// answered. If the drain outlives grace the remaining connections are closed
// hard. Safe to call more than once.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.SetReadDeadline(time.Now()) //nolint:errcheck
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
	}
	return s.Close()
}

// Close stops accepting, closes every live connection, and waits for the
// per-connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// maxConnInflight bounds the requests executing at once on behalf of one
// connection. At the bound the connection's reader stops reading frames, so
// the back-pressure reaches the client through TCP. The bound is per socket
// and a client keeps one socket per node by default: what it has in flight
// past the bound waits in TCP's buffers, unless it raises MaxConns.
const maxConnInflight = 256

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	obs := s.obs.Load()
	obs.connOpened()
	w := &frameWriter{conn: conn, bw: bufio.NewWriterSize(conn, connBufSize)}
	// The worker set: a send on jobs succeeds only while a worker is parked
	// in its receive. Workers last as long as the connection, so a request
	// costs a channel handoff, not a goroutine and the regrowth of its stack.
	jobs := make(chan *request)
	var workers sync.WaitGroup
	var writeFailed sync.Once // the writer's error is sticky: log it and hang up once
	work := func(req *request) {
		defer workers.Done()
		var out []byte // this worker's reply frame; the writer copies it
		for ok := true; ok; req, ok = <-jobs {
			t0 := time.Now()
			resp := s.execute(req)
			s.served.Add(1)
			out = resp.appendTo(out, req.Op)
			if len(out) > MaxFrame {
				// Answered under the request's id: a reply the writer
				// refused would fail the connection under every caller.
				resp = response{Status: statusPermanent, ReqID: req.ReqID,
					Msg: fmt.Sprintf("reply of %d bytes exceeds MaxFrame", len(out))}
				out = resp.appendTo(out, req.Op)
			}
			s.obs.Load().record(req, &resp, time.Since(t0), len(req.frame), len(out))
			if err := w.write(out); err != nil {
				writeFailed.Do(func() {
					if !errors.Is(err, net.ErrClosed) {
						s.logf("nodenet: %s: write: %v", conn.RemoteAddr(), err)
					}
					conn.Close() // unblocks the reader
				})
			}
			releaseRequest(req) // the reply is in the writer: nothing reads the frame now
			if cap(out) > maxKeptBuf {
				out = nil // a parked worker holds no bulk reply
			}
		}
	}
	defer func() {
		close(jobs)
		workers.Wait() // requests already started still answer (Drain's contract)
		conn.Close()
		obs.connClosed()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fr := frameReader{r: bufio.NewReaderSize(conn, connBufSize)}
	for started := 0; ; {
		req := reqPool.Get().(*request)
		payload, err := fr.next(req.frame)
		if err != nil {
			reqPool.Put(req)
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				s.logf("nodenet: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		req.frame = payload
		if err := req.decode(payload); err != nil {
			// The stream is desynchronised; answer with a permanent error
			// (req id 0 — we could not trust the decoded one) and drop the
			// connection so the client re-dials cleanly.
			releaseRequest(req)
			s.logf("nodenet: %s: %v", conn.RemoteAddr(), err)
			resp := &response{Status: statusPermanent, Msg: err.Error()}
			w.write(resp.appendTo(nil, 0)) //nolint:errcheck
			return
		}
		select {
		case jobs <- req:
		default:
			if started < maxConnInflight {
				started++
				workers.Add(1)
				go work(req)
			} else {
				jobs <- req // every worker is busy: wait for the first to finish
			}
		}
	}
}

// reqPool lends the requests the server decodes frames into (see request).
var reqPool = sync.Pool{New: func() any { return new(request) }}

// releaseRequest returns a request to reqPool once its reply is written,
// keeping its frame, key list, record array and ends — each only while it
// is no larger than maxKeptBuf, as a worker's reply buffer, so a bulk append
// or a long range does not stay pinned in the pool. In a test binary the
// frame is scribbled first: anything still holding a key, file name or trace
// identity decoded from it reads poison.
func releaseRequest(req *request) {
	if testing.Testing() {
		for i := range req.frame {
			req.frame[i] = 0xA5
		}
	}
	clear(req.Keys)
	clear(req.recs)
	*req = request{
		frame: keep(req.frame),
		Keys:  keep(req.Keys[:0]),
		recs:  keep(req.recs[:0]),
		ends:  keep(req.ends[:0]),
	}
	reqPool.Put(req)
}

// keep is s when its array is no larger than maxKeptBuf, nil otherwise.
func keep[E any](s []E) []E {
	var e E
	if cap(s)*int(unsafe.Sizeof(e)) > maxKeptBuf {
		return nil
	}
	return s
}

// isTimeout reports a deadline-induced read failure — the expected way idle
// connections exit during Drain, not worth a log line.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// execute runs one decoded request against the backend and classifies the
// outcome into a wire status. Lookups and ranges answer in the request's own
// record array and ends, through the backend's append form when it has one.
func (s *Server) execute(req *request) response {
	ctx := context.Background()
	resp := response{Status: statusOK, ReqID: req.ReqID}
	var err error
	switch req.Op {
	case opCreate:
		err = s.backend.CreateFile(ctx, req.File, dfs.Kind(req.Kind), req.Partitions, req.Part)
	case opDrop:
		err = s.backend.DropFile(ctx, req.File)
	case opLookupBatch:
		req.ends = slices.Grow(req.ends[:0], len(req.Keys))[:len(req.Keys)]
		req.recs, err = dfs.AppendLookupBatch(ctx, s.backend, req.recs[:0], req.File, req.Partition, req.Keys, req.ends)
		resp.Recs, resp.Ends = req.recs, req.ends
	case opLookupRange:
		req.recs, err = dfs.AppendLookupRange(ctx, s.backend, req.recs[:0], req.File, req.Partition, req.Lo, req.Hi)
		resp.Recs = req.recs
	case opScan:
		var recs []lake.Record // not resp.Recs: the closure would move resp to the heap for every op
		err = s.backend.Scan(ctx, req.File, req.Partition, func(r lake.Record) error {
			recs = append(recs, r.Clone())
			return nil
		})
		resp.Recs = recs
	case opAppend:
		err = s.backend.Append(ctx, req.File, req.Partition, req.Recs)
	case opStat:
		resp.Records, resp.Bytes, err = s.backend.Stat(ctx, req.File, req.Partition)
	default:
		err = lake.AsPermanent(fmt.Errorf("nodenet: unknown op %d", req.Op))
	}
	if err != nil {
		resp.Status, resp.Msg = classify(err), err.Error()
		resp.Recs, resp.Ends = nil, nil
	}
	return resp
}

// classify maps a backend error onto a wire status. The client re-creates
// the matching Go error class on its side, so lake.IsPermanent and the
// ErrNoSuchFile/ErrNoSuchPartition sentinels survive the network hop.
func classify(err error) byte {
	switch {
	case errors.Is(err, lake.ErrNoSuchFile):
		return statusNoFile
	case errors.Is(err, lake.ErrNoSuchPartition):
		return statusNoPartition
	case lake.IsPermanent(err):
		return statusPermanent
	default:
		return statusTransient
	}
}
