package oracle

// The seventh arm: smpe-net. The scenario's cluster is mirrored onto a real
// networked data plane — one lakenode-shaped server per node on loopback
// TCP, one nodenet client per node, each client wrapped in a (dormant)
// chaos transport proxy — and the same job runs twice: once clean with an
// aggressive hedge delay (so tail-latency hedging actually fires), once
// with the transport chaos armed (injected drops + delays, the executor
// retrying through them). Both runs must reproduce the oracle answer; the
// clean run must also match the sim's per-stage emit counts, and at the end
// the clients must close down to zero open connections.

import (
	"context"
	"fmt"
	"time"

	"lakeharbor/internal/chaos"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/trace"
)

// netHedgeAfter is the fixed hedge delay for the net arm. The hedge clock
// runs from the moment a request's frame is written, and a lone loopback
// RPC answers in tens of microseconds — but a stage's whole fan-out is in
// flight at once on a few cores, so replies routinely take longer than this
// to reach their callers and hedges fire reliably without a warmed-up
// latency profile (several hundred per 30-seed sweep). Lower it if a sweep
// ever stops hedging; "zero hedges fails the sweep" stays.
const netHedgeAfter = 200 * time.Microsecond

// netStats is what the arm reports upward for the acceptance assertions.
type netStats struct {
	HedgeFires  int64
	HedgeWins   int64
	LeakedConns int64
}

// runNetArm mirrors the scenario onto loopback lakenode servers and runs
// the job clean and under transport chaos. It returns the clean run's
// result (for emit comparison), the collected failures, and the transport
// stats after teardown.
func runNetArm(ctx context.Context, sc *scenario) (*core.Result, []string, netStats) {
	nodes := sc.cluster.NumNodes()
	stats := nodenet.NewStats()
	var ns netStats

	// One single-node backing cluster + RPC server per scenario node. The
	// backing clusters are free-cost: the sockets provide real latency now.
	servers := make([]*nodenet.Server, 0, nodes)
	wrappers := make([]*chaos.TransportChaos, 0, nodes)
	transports := make([]dfs.NodeTransport, 0, nodes)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	quiet := func(string, ...any) {}
	observers := make([]*nodenet.ServerObs, 0, nodes)
	for i := 0; i < nodes; i++ {
		backing := dfs.NewCluster(dfs.Config{Nodes: 1})
		srv := nodenet.NewServer(dfs.Local(backing), quiet)
		obs := nodenet.NewServerObs()
		srv.Observe(obs)
		observers = append(observers, obs)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, []string{fmt.Sprintf("smpe-net: listen node %d: %v", i, err)}, ns
		}
		servers = append(servers, srv)
		client := nodenet.Dial(addr.String(), nodenet.Options{HedgeAfter: netHedgeAfter}, stats)
		// The chaos wrapper sits between the executor and the socket,
		// dormant until the second run arms it.
		wrap := chaos.WrapTransport(client, sc.seed+int64(i), chaos.TransportProfile{})
		wrappers = append(wrappers, wrap)
		transports = append(transports, wrap)
	}
	closeAll := func() {
		for _, tr := range transports {
			tr.Close() //nolint:errcheck
		}
	}

	netCluster, err := dfs.NewClusterWithTransports(dfs.Config{}, transports)
	if err != nil {
		closeAll()
		return nil, []string{fmt.Sprintf("smpe-net: build cluster: %v", err)}, ns
	}
	if err := mirrorData(ctx, sc.cluster, netCluster); err != nil {
		closeAll()
		return nil, []string{fmt.Sprintf("smpe-net: mirror: %v", err)}, ns
	}

	// Clean run. A small retry budget absorbs spurious connection-level
	// transients (a loopback RST is rare but not impossible); a healthy run
	// uses none, and checkArm still bounds what it may use.
	const cleanRetries = 2
	opts := core.Options{
		Threads:      sc.threads,
		MaxBatch:     sc.maxBatch,
		KeepRecords:  true,
		MaxRetries:   cleanRetries,
		RetryBackoff: 50 * time.Microsecond,
	}
	res, err := core.ExecuteSMPE(ctx, sc.job, netCluster, netCluster, opts)
	fails := checkArm("smpe-net", sc, res, err, cleanRetries)
	for _, f := range checkAttribution(sc, res, observers) {
		fails = append(fails, f)
	}

	// Chaos run: arm every wrapper, size retries to out-wait the combined
	// drop budget, and demand the same answer.
	totalDrops := 0
	for _, w := range wrappers {
		w.Arm()
		totalDrops += w.MaxDrops()
	}
	chaosOpts := opts
	chaosOpts.MaxRetries = totalDrops + 2
	resC, errC := core.ExecuteSMPE(ctx, sc.job, netCluster, netCluster, chaosOpts)
	for _, w := range wrappers {
		w.Disarm()
	}
	for _, f := range checkArm("smpe-net-chaos", sc, resC, errC, chaosOpts.MaxRetries) {
		fails = append(fails, f)
	}

	// Teardown before the leak check: Close closes every connection of each
	// client, so anything still open afterwards is a real leak.
	closeAll()
	ns.HedgeFires = stats.HedgeFires()
	ns.HedgeWins = stats.HedgeWins()
	ns.LeakedConns = stats.OpenConns()
	if ns.LeakedConns != 0 {
		fails = append(fails, fmt.Sprintf("smpe-net: %d connections leaked after pool drain", ns.LeakedConns))
	}
	return res, fails, ns
}

// checkAttribution asserts the observability plane worked end to end on the
// clean run: the wire trace context reached the servers (node-side spans
// name the job that caused them), the client recorded EvRPC events, and the
// critical path can name a remote (stage, node, rpc) segment.
func checkAttribution(sc *scenario, res *core.Result, observers []*nodenet.ServerObs) []string {
	if res == nil || res.Trace == nil {
		return nil // checkArm already reported the failure
	}
	var fails []string

	attributed := 0
	for _, o := range observers {
		for _, span := range o.Spans() {
			if span.Job != "" {
				attributed++
				if span.Job != sc.job.Name {
					fails = append(fails, fmt.Sprintf(
						"smpe-net: node span attributed to job %q, want %q", span.Job, sc.job.Name))
				}
				if span.Stage < 0 {
					fails = append(fails, fmt.Sprintf(
						"smpe-net: node span for job %q has negative stage %d", span.Job, span.Stage))
				}
			}
		}
	}
	if attributed == 0 {
		fails = append(fails, "smpe-net: no node-side RPC span carried a job attribution")
	}

	rpcEvents := 0
	for _, ev := range res.Trace.Events {
		if ev.Kind == trace.EvRPC {
			rpcEvents++
		}
	}
	if rpcEvents == 0 {
		fails = append(fails, "smpe-net: clean run recorded no rpc timeline events")
		return fails
	}
	rpcSegs := 0
	for _, seg := range trace.CriticalPath(res.Trace.Events, 64) {
		if seg.Phase == "rpc" {
			rpcSegs++
		}
	}
	if rpcSegs == 0 {
		fails = append(fails, fmt.Sprintf(
			"smpe-net: critical path names no (stage, node, rpc) segment despite %d rpc events", rpcEvents))
	}
	return fails
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
