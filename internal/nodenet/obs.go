package nodenet

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lakeharbor/internal/obs"
	"lakeharbor/internal/trace"
)

// opNames maps wire ops to the stable label values the node metrics and the
// federation layer use. Index 0 is the catch-all for undecodable ops.
var opNames = [...]string{
	0:             "unknown",
	opCreate:      "create",
	opDrop:        "drop",
	opLookupBatch: "lookup_batch",
	opLookupRange: "lookup_range",
	opScan:        "scan",
	opAppend:      "append",
	opStat:        "stat",
}

func opName(op byte) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "unknown"
}

// opObs is the per-op counter and latency set of one node.
type opObs struct {
	count    atomic.Int64
	errors   atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	lat      trace.Histogram
}

// spanRingCap bounds the recent-RPC span ring (~a few hundred KB worst
// case); older spans are overwritten.
const spanRingCap = 512

// RPCSpan is one served RPC with its wire trace attribution, as exposed by
// the sidecar's /debug/rpcs endpoint: which job/stage/tenant/attempt caused
// the work, on which file, and how long it took.
type RPCSpan struct {
	Op      string        `json:"op"`
	File    string        `json:"file"`
	Job     string        `json:"job,omitempty"`
	Tenant  string        `json:"tenant,omitempty"`
	Stage   int           `json:"stage"`
	Attempt int           `json:"attempt,omitempty"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"durNs"`
	Status  string        `json:"status,omitempty"` // empty on success
}

// ServerObs is a lakenode's own trace registry: per-op counts, error counts,
// byte volumes, and latency histograms, plus open-connection and partition
// gauges and a bounded ring of recent RPC spans with their wire trace
// context. Attach one to a Server with Server.Observe; all methods are safe
// for concurrent use and nil-receiver safe, so an unobserved server pays
// almost nothing.
type ServerObs struct {
	start time.Time
	srv   atomic.Pointer[Server] // set by Server.Observe; read by Collect

	conns      atomic.Int64 // open connections gauge
	connsTotal atomic.Int64 // connections accepted counter

	ops [len(opNames)]opObs

	mu    sync.Mutex
	parts map[string]int // file -> partition count, tracked via create/drop
	spans [spanRingCap]RPCSpan
	spanN int64 // total spans recorded (ring write cursor)
}

// NewServerObs returns an empty observability registry stamped with the
// current time as process start.
func NewServerObs() *ServerObs {
	return &ServerObs{start: time.Now(), parts: make(map[string]int)}
}

func (o *ServerObs) connOpened() {
	if o != nil {
		o.conns.Add(1)
		o.connsTotal.Add(1)
	}
}

func (o *ServerObs) connClosed() {
	if o != nil {
		o.conns.Add(-1)
	}
}

// record accounts one served request: op counters, bytes on both directions,
// latency, the partition catalog (create/drop), and the span ring.
func (o *ServerObs) record(req *request, resp *response, d time.Duration, bytesIn, bytesOut int) {
	if o == nil {
		return
	}
	op := req.Op
	if int(op) >= len(opNames) {
		op = 0
	}
	st := &o.ops[op]
	st.count.Add(1)
	st.bytesIn.Add(int64(bytesIn))
	st.bytesOut.Add(int64(bytesOut))
	if resp.Status != statusOK {
		st.errors.Add(1)
	}
	st.lat.RecordDur(d)

	// The request's strings alias its frame, which the server lends to the
	// next request: the ring keeps copies.
	span := RPCSpan{
		Op: opName(op), File: strings.Clone(req.File),
		Job: strings.Clone(req.Ctx.Job), Tenant: strings.Clone(req.Ctx.Tenant),
		Stage: req.Ctx.Stage, Attempt: req.Ctx.Attempt,
		Start: time.Now().Add(-d), Dur: d,
	}
	o.mu.Lock()
	if resp.Status != statusOK {
		span.Status = resp.Msg
	}
	if resp.Status == statusOK {
		switch req.Op {
		case opCreate:
			o.parts[req.File] = req.Partitions
		case opDrop:
			delete(o.parts, req.File)
		}
	}
	o.spans[o.spanN%spanRingCap] = span
	o.spanN++
	o.mu.Unlock()
}

// Spans returns the retained recent RPC spans, newest last.
func (o *ServerObs) Spans() []RPCSpan {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.spanN
	if n > spanRingCap {
		n = spanRingCap
	}
	out := make([]RPCSpan, 0, n)
	startAt := o.spanN - n
	for i := startAt; i < o.spanN; i++ {
		out = append(out, o.spans[i%spanRingCap])
	}
	return out
}

// OpState is the mergeable per-op digest the federation layer scrapes: the
// raw counters plus the sparse histogram snapshot (trace.HistSnapshot
// buckets merge losslessly across nodes).
type OpState struct {
	Count    int64              `json:"count"`
	Errors   int64              `json:"errors,omitempty"`
	BytesIn  int64              `json:"bytesIn"`
	BytesOut int64              `json:"bytesOut"`
	Latency  trace.HistSnapshot `json:"latency"`
}

// NodeState is one node's full observability snapshot, served as JSON by the
// sidecar's /debug/state and scraped by the lakeserve federator. Histograms
// travel as sparse bucket snapshots, not pre-digested quantiles, so the
// federator can merge them exactly.
type NodeState struct {
	Component     string             `json:"component"`
	UptimeSeconds float64            `json:"uptimeSeconds"`
	Draining      bool               `json:"draining"`
	OpenConns     int64              `json:"openConns"`
	ConnsTotal    int64              `json:"connsTotal"`
	Served        int64              `json:"served"`
	Files         int                `json:"files"`
	Partitions    int                `json:"partitions"`
	Ops           map[string]OpState `json:"ops"`
}

// State digests the registry into the federation scrape format. srv may be
// nil (Served and Draining then stay zero).
func (o *ServerObs) State(srv *Server) NodeState {
	st := NodeState{Component: "lakenode", Ops: make(map[string]OpState)}
	if o == nil {
		return st
	}
	st.UptimeSeconds = time.Since(o.start).Seconds()
	st.OpenConns = o.conns.Load()
	st.ConnsTotal = o.connsTotal.Load()
	if srv != nil {
		st.Served = srv.Served()
		st.Draining = srv.Draining()
	}
	o.mu.Lock()
	st.Files = len(o.parts)
	for _, n := range o.parts {
		st.Partitions += n
	}
	o.mu.Unlock()
	for op := range o.ops {
		s := &o.ops[op]
		if s.count.Load() == 0 {
			continue
		}
		st.Ops[opName(byte(op))] = OpState{
			Count:    s.count.Load(),
			Errors:   s.errors.Load(),
			BytesIn:  s.bytesIn.Load(),
			BytesOut: s.bytesOut.Load(),
			Latency:  s.lat.Snapshot(),
		}
	}
	return st
}

var (
	nodeOpenConns  = obs.NewGauge("lakeharbor_node_open_conns", "Live client connections to this node.")
	nodeConns      = obs.NewCounter("lakeharbor_node_conns_total", "Client connections accepted.")
	nodeRequests   = obs.NewCounter("lakeharbor_node_requests_total", "RPC requests answered.")
	nodeDraining   = obs.NewGauge("lakeharbor_node_draining", "1 while the node drains before shutdown.")
	nodeFiles      = obs.NewGauge("lakeharbor_node_files", "Files in the node's catalog.")
	nodePartitions = obs.NewGauge("lakeharbor_node_partitions", "Partitions hosted across all files.")
	nodeRPCs       = obs.NewCounter("lakeharbor_node_rpcs_total", "RPCs served, by op (create, drop, lookup_batch, lookup_range, scan, append, stat).", "op")
	nodeRPCErrors  = obs.NewCounter("lakeharbor_node_rpc_errors_total", "RPCs answered with an error status, by op.", "op")
	nodeBytesIn    = obs.NewCounter("lakeharbor_node_bytes_in_total", "Request payload bytes received, by op.", "op")
	nodeBytesOut   = obs.NewCounter("lakeharbor_node_bytes_out_total", "Response payload bytes sent, by op.", "op")
	nodeRPCSeconds = obs.NewSummary("lakeharbor_node_rpc_seconds", "Server-side RPC service time, by op.", 1e-9, []float64{0.5, 0.95, 0.99}, "op")
)

// Collect renders the node's own lakeharbor_node_* families — the sidecar's
// /debug/metrics body after the identity series. The served count and the
// draining flag come from the server the registry observes.
func (o *ServerObs) Collect(w *obs.Writer) {
	if o == nil {
		return
	}
	st := o.State(o.srv.Load())
	w.Sample(nodeOpenConns, float64(st.OpenConns))
	w.Sample(nodeConns, float64(st.ConnsTotal))
	w.Sample(nodeRequests, float64(st.Served))
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	w.Sample(nodeDraining, draining)
	w.Sample(nodeFiles, float64(st.Files))
	w.Sample(nodePartitions, float64(st.Partitions))
	for op, s := range st.Ops {
		w.Sample(nodeRPCs, float64(s.Count), op)
		w.Sample(nodeRPCErrors, float64(s.Errors), op)
		w.Sample(nodeBytesIn, float64(s.BytesIn), op)
		w.Sample(nodeBytesOut, float64(s.BytesOut), op)
		w.Summary(nodeRPCSeconds, s.Latency, op)
	}
}
