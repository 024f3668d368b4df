package oracle

import (
	"context"
	"fmt"
	"time"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/trace"
)

// netHedgeAfter is the fixed hedge delay at plane=net. The hedge clock
// runs from the moment a request's frame is written, and a lone loopback
// RPC answers in tens of microseconds — but a stage's whole fan-out is in
// flight at once on a few cores, so replies routinely take longer than this
// to reach their callers and hedges fire reliably without a warmed-up
// latency profile. Lower it if a sweep ever stops hedging; "zero hedges
// fails the sweep" stays.
const netHedgeAfter = 200 * time.Microsecond

// netPlane is what plane=net keeps for the checks: the clients' shared
// transport stats and each server's span observer.
type netPlane struct {
	stats     *nodenet.Stats
	observers []*nodenet.ServerObs
}

// plane mirrors the world onto loopback nodenet servers at plane=net: one
// single-node backing cluster and RPC server per node (free-cost: the
// sockets provide real latency), and one hedging client per server, behind
// a front-end cluster the faults step arms like the sim one. Each server and
// client joins the close list as soon as it is opened, so no return path
// can leak one.
func (w *world) plane(ctx context.Context) error {
	if w.p.is(plane, "sim") {
		return nil
	}
	n := &netPlane{stats: nodenet.NewStats()}
	w.net = n
	quiet := func(string, ...any) {}
	transports := make([]dfs.NodeTransport, w.cluster.NumNodes())
	for i := range transports {
		srv := nodenet.NewServer(dfs.Local(dfs.NewCluster(dfs.Config{Nodes: 1})), quiet)
		obs := nodenet.NewServerObs()
		srv.Observe(obs)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen node %d: %w", i, err)
		}
		w.closers = append(w.closers, func() { srv.Close() })
		client := nodenet.Dial(addr.String(), nodenet.Options{HedgeAfter: netHedgeAfter}, n.stats)
		w.closers = append(w.closers, func() { client.Close() })
		n.observers = append(n.observers, obs)
		transports[i] = client
	}
	netCluster, err := dfs.NewClusterWithTransports(dfs.Config{}, transports)
	if err != nil {
		return err
	}
	if err := mirrorData(ctx, w.cluster, netCluster); err != nil {
		return fmt.Errorf("mirror: %w", err)
	}
	w.cluster = netCluster
	// A small retry budget absorbs a spurious connection-level transient (a
	// loopback RST is rare but not impossible); a healthy run uses none, and
	// checkRun still bounds what it may use.
	w.retries = 2
	return nil
}

// account reads the transport stats once everything is closed: Close
// closes every connection of each client, so one still open is a leak.
func (n *netPlane) account(w *world) {
	w.out.hedges = n.stats.HedgeFires()
	if w.out.leaks = n.stats.OpenConns(); w.out.leaks != 0 {
		w.fail("net: %d connections leaked after pool drain", w.out.leaks)
	}
}

// checkAttribution asserts the observability plane worked end to end: the
// wire trace context reached the servers (node-side spans name the job
// that caused them), the client recorded EvRPC events, and the critical
// path can name a remote (stage, node, rpc) segment.
func (n *netPlane) checkAttribution(label, job string, res *core.Result) []string {
	var fails []string
	attributed := 0
	for _, o := range n.observers {
		for _, span := range o.Spans() {
			if span.Job == "" {
				continue
			}
			attributed++
			if span.Job != job || span.Stage < 0 {
				fails = append(fails, fmt.Sprintf("%s: node span attributed to job %q stage %d, want job %q", label, span.Job, span.Stage, job))
			}
		}
	}
	if attributed == 0 {
		fails = append(fails, label+": no node-side RPC span carried a job attribution")
	}
	rpcEvents := 0
	for _, ev := range res.Trace.Events {
		if ev.Kind == trace.EvRPC {
			rpcEvents++
		}
	}
	for _, seg := range trace.CriticalPath(res.Trace.Events, 64) {
		if seg.Phase == "rpc" {
			return fails
		}
	}
	return append(fails, fmt.Sprintf("%s: critical path names no (stage, node, rpc) segment over %d rpc events", label, rpcEvents))
}

// mirrorData replays src's catalog and partition contents onto dst,
// preserving partition placement (partition p of src lands on partition p
// of dst, and therefore on dst's owner transport for p).
func mirrorData(ctx context.Context, src, dst *dfs.Cluster) error {
	for _, name := range src.FileNames() {
		f, err := src.File(name)
		if err != nil {
			return err
		}
		kinded, ok := f.(interface{ Kind() dfs.Kind })
		if !ok {
			return fmt.Errorf("file %q exposes no kind", name)
		}
		nf, err := dst.CreateFile(name, kinded.Kind(), f.NumPartitions(), f.Partitioner())
		if err != nil {
			return err
		}
		for p := 0; p < f.NumPartitions(); p++ {
			if mutate.skip != nil && mutate.skip(name, p) {
				continue
			}
			var recs []lake.Record
			if err := f.Scan(ctx, p, func(r lake.Record) error {
				recs = append(recs, r.Clone())
				return nil
			}); err != nil {
				return err
			}
			if len(recs) == 0 {
				continue
			}
			if err := nf.Append(ctx, p, recs...); err != nil {
				return err
			}
		}
	}
	return nil
}
