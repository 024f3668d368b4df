// Package fed is lakeserve's metrics federation layer: it periodically
// scrapes the /debug/state endpoint of every lakenode's introspection
// sidecar and merges the per-node snapshots into cluster-wide
// lakeharbor_cluster_* series on lakeserve's own /debug/metrics.
//
// Nodes export their latency distributions as sparse log-linear bucket
// snapshots (trace.HistSnapshot), not pre-digested quantiles, so the
// federator can merge them losslessly: a quantile computed over the merged
// histogram equals the quantile of the union of the per-node observations,
// to within one bucket bound — the same error every single-node quantile
// already carries. Scrape failures are themselves observable: a per-node
// up/down gauge and a failure counter, with the last good snapshot retained
// so a blip doesn't blank the cluster view.
package fed

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/obs"
	"lakeharbor/internal/trace"
)

// Options tunes a Federator.
type Options struct {
	// Interval between scrape rounds for Start. Default 2s.
	Interval time.Duration
	// Timeout bounds one node scrape. Default 1s.
	Timeout time.Duration
	// Client overrides the HTTP client (tests). Default http.DefaultClient
	// with Timeout applied per request via context.
	Client *http.Client
}

// target is one scraped node.
type target struct {
	name string // label value: host:port
	url  string // full /debug/state URL
}

// nodeView is the retained state of one target.
type nodeView struct {
	up       bool
	failures int64
	scrapes  int64
	state    nodenet.NodeState // last good snapshot (zero until first success)
	hasState bool
}

// Federator scrapes a fixed set of lakenode debug endpoints and renders the
// merged cluster view. All methods are safe for concurrent use; Collect may
// run while a scrape is in flight.
type Federator struct {
	targets []target
	opts    Options

	mu    sync.Mutex
	views []nodeView
}

// New builds a Federator over the given node debug addresses. Each target
// may be "host:port", "http://host:port", or a full URL; the /debug/state
// path is appended when absent.
func New(targets []string, opts Options) *Federator {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = time.Second
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	f := &Federator{opts: opts}
	for _, t := range targets {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		base := t
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		name := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
		name = strings.TrimSuffix(name, "/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		url := strings.TrimSuffix(base, "/")
		if !strings.HasSuffix(url, "/debug/state") {
			url += "/debug/state"
		}
		f.targets = append(f.targets, target{name: name, url: url})
	}
	f.views = make([]nodeView, len(f.targets))
	return f
}

// Targets returns the node label values, in scrape order.
func (f *Federator) Targets() []string {
	out := make([]string, len(f.targets))
	for i, t := range f.targets {
		out[i] = t.name
	}
	return out
}

// ScrapeOnce scrapes every target once, concurrently. A failed target keeps
// its last good snapshot but flips its up gauge and counts a failure. The
// returned error aggregates per-target failures (nil when all succeeded).
func (f *Federator) ScrapeOnce(ctx context.Context) error {
	type result struct {
		i     int
		state nodenet.NodeState
		err   error
	}
	results := make(chan result, len(f.targets))
	for i, t := range f.targets {
		go func(i int, t target) {
			st, err := f.scrape(ctx, t)
			results <- result{i: i, state: st, err: err}
		}(i, t)
	}
	var errs []error
	for range f.targets {
		r := <-results
		f.mu.Lock()
		v := &f.views[r.i]
		v.scrapes++
		if r.err != nil {
			v.up = false
			v.failures++
			errs = append(errs, fmt.Errorf("%s: %w", f.targets[r.i].name, r.err))
		} else {
			v.up = true
			v.state = r.state
			v.hasState = true
		}
		f.mu.Unlock()
	}
	if len(errs) > 0 {
		return fmt.Errorf("fed: %d/%d scrapes failed: %v", len(errs), len(f.targets), errs)
	}
	return nil
}

func (f *Federator) scrape(ctx context.Context, t target) (nodenet.NodeState, error) {
	var st nodenet.NodeState
	ctx, cancel := context.WithTimeout(ctx, f.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url, nil)
	if err != nil {
		return st, err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode: %w", err)
	}
	return st, nil
}

// Start scrapes on the configured interval until ctx is cancelled. Errors
// are absorbed into the failure counters; run it as a goroutine.
func (f *Federator) Start(ctx context.Context) {
	tick := time.NewTicker(f.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			f.ScrapeOnce(ctx) //nolint:errcheck
		}
	}
}

var (
	clusterNodes          = obs.NewGauge("lakeharbor_cluster_nodes", "Data-plane nodes under federation.")
	clusterNodesUp        = obs.NewGauge("lakeharbor_cluster_nodes_up", "Nodes whose last scrape succeeded.")
	clusterScrapes        = obs.NewCounter("lakeharbor_cluster_scrapes_total", "Node scrape attempts across all targets.")
	clusterNodeUp         = obs.NewGauge("lakeharbor_cluster_node_up", "1 when the node's last scrape succeeded.", "node")
	clusterScrapeFailures = obs.NewCounter("lakeharbor_cluster_scrape_failures_total", "Failed scrapes, by node.", "node")
	clusterNodeDraining   = obs.NewGauge("lakeharbor_cluster_node_draining", "1 while the node drains before shutdown.", "node")
	clusterNodeOpenConns  = obs.NewGauge("lakeharbor_cluster_node_open_conns", "Live client connections, by node.", "node")
	clusterNodePartitions = obs.NewGauge("lakeharbor_cluster_node_partitions", "Partitions hosted, by node.", "node")
	clusterRPCs           = obs.NewCounter("lakeharbor_cluster_rpcs_total", "RPCs served, by node.", "node")
	clusterRPCErrors      = obs.NewCounter("lakeharbor_cluster_rpc_errors_total", "RPCs answered with an error status, by node.", "node")
	clusterBytesIn        = obs.NewCounter("lakeharbor_cluster_bytes_in_total", "Request payload bytes received, by node.", "node")
	clusterBytesOut       = obs.NewCounter("lakeharbor_cluster_bytes_out_total", "Response payload bytes sent, by node.", "node")
	clusterRPCSeconds     = obs.NewSummary("lakeharbor_cluster_rpc_seconds",
		"Cluster-wide server-side RPC service time, by op, from the per-node histograms merged bucket by bucket (exact to one bucket bound, not an average of node quantiles).",
		1e-9, []float64{0.5, 0.95, 0.99}, "op")
)

// Collect renders the federated lakeharbor_cluster_* series from the
// retained snapshots.
func (f *Federator) Collect(w *obs.Writer) {
	f.mu.Lock()
	views := make([]nodeView, len(f.views))
	copy(views, f.views)
	f.mu.Unlock()

	var nodesUp, scrapes int64
	// Merge per-op latency histograms across nodes — the lossless merge is
	// what makes a federated quantile trustworthy.
	merged := make(map[string]trace.HistSnapshot)
	for i, v := range views {
		node := f.targets[i].name
		up := 0.0
		if v.up {
			up = 1
			nodesUp++
		}
		scrapes += v.scrapes
		w.Sample(clusterNodeUp, up, node)
		w.Sample(clusterScrapeFailures, float64(v.failures), node)
		if !v.hasState {
			continue
		}
		draining := 0.0
		if v.state.Draining {
			draining = 1
		}
		var rpcs, errs, bytesIn, bytesOut int64
		for name, op := range v.state.Ops {
			rpcs += op.Count
			errs += op.Errors
			bytesIn += op.BytesIn
			bytesOut += op.BytesOut
			merged[name] = merged[name].Merge(op.Latency)
		}
		w.Sample(clusterNodeDraining, draining, node)
		w.Sample(clusterNodeOpenConns, float64(v.state.OpenConns), node)
		w.Sample(clusterNodePartitions, float64(v.state.Partitions), node)
		w.Sample(clusterRPCs, float64(rpcs), node)
		w.Sample(clusterRPCErrors, float64(errs), node)
		w.Sample(clusterBytesIn, float64(bytesIn), node)
		w.Sample(clusterBytesOut, float64(bytesOut), node)
	}
	w.Sample(clusterNodes, float64(len(f.targets)))
	w.Sample(clusterNodesUp, float64(nodesUp))
	w.Sample(clusterScrapes, float64(scrapes))
	for op, snap := range merged {
		w.Summary(clusterRPCSeconds, snap, op)
	}
}

// Merged returns the cluster-wide merged latency snapshot for one op —
// exported for tests asserting the merge property.
func (f *Federator) Merged(op string) trace.HistSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out trace.HistSnapshot
	for _, v := range f.views {
		if v.hasState {
			out = out.Merge(v.state.Ops[op].Latency)
		}
	}
	return out
}
