package fed

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/obs"
	"lakeharbor/internal/promtext"
	"lakeharbor/internal/trace"
)

// fakeNode serves a canned NodeState like a lakenode sidecar's /debug/state.
func fakeNode(t *testing.T, st nodenet.NodeState) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/state" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(st) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

func histOf(samples ...int64) trace.HistSnapshot {
	var h trace.Histogram
	for _, s := range samples {
		h.Record(s)
	}
	return h.Snapshot()
}

// TestMergePropertyAcrossNodes is the federation acceptance property: the
// quantile of the merged per-node histograms equals the quantile of one
// histogram fed the union of both nodes' observations — exactly, because
// bucket-wise merge is lossless, so no extra error accumulates beyond the
// one-bucket bound every single histogram already has.
func TestMergePropertyAcrossNodes(t *testing.T) {
	// Two deliberately skewed populations: node A fast, node B slow tail.
	var aSamples, bSamples, union []int64
	for i := int64(1); i <= 400; i++ {
		aSamples = append(aSamples, i*1000)   // 1–400µs
		bSamples = append(bSamples, i*50_000) // 50µs–20ms
	}
	union = append(append(union, aSamples...), bSamples...)

	stA := nodenet.NodeState{Component: "lakenode", Ops: map[string]nodenet.OpState{
		"lookup_batch": {Count: int64(len(aSamples)), Latency: histOf(aSamples...)},
	}}
	stB := nodenet.NodeState{Component: "lakenode", Ops: map[string]nodenet.OpState{
		"lookup_batch": {Count: int64(len(bSamples)), Latency: histOf(bSamples...)},
	}}
	nodeA, nodeB := fakeNode(t, stA), fakeNode(t, stB)

	f := New([]string{nodeA.URL, nodeB.URL}, Options{})
	if err := f.ScrapeOnce(context.Background()); err != nil {
		t.Fatalf("scrape: %v", err)
	}

	merged := f.Merged("lookup_batch")
	want := histOf(union...)
	if merged.Count != want.Count {
		t.Fatalf("merged count %d, want %d", merged.Count, want.Count)
	}
	if merged.Sum != want.Sum || merged.Max != want.Max {
		t.Fatalf("merged sum/max (%d, %d), want (%d, %d)", merged.Sum, merged.Max, want.Sum, want.Max)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		if got, exp := merged.Quantile(q), want.Quantile(q); got != exp {
			t.Errorf("q%g: merged %d, union %d — merge lost precision", q, got, exp)
		}
	}
}

// TestWriteMetricsFederates: the rendered lakeharbor_cluster_* series carry
// per-node labels, an up gauge per node, and merged quantiles.
func TestWriteMetricsFederates(t *testing.T) {
	st := nodenet.NodeState{
		Component: "lakenode", OpenConns: 3, Partitions: 8,
		Ops: map[string]nodenet.OpState{
			"scan": {Count: 10, Errors: 1, BytesIn: 100, BytesOut: 9000, Latency: histOf(1000, 2000, 3000)},
		},
	}
	node := fakeNode(t, st)
	f := New([]string{node.URL}, Options{})
	if err := f.ScrapeOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := render(f)

	nodeLabel := strings.TrimPrefix(node.URL, "http://")
	for _, want := range []string{
		"lakeharbor_cluster_nodes 1",
		"lakeharbor_cluster_nodes_up 1",
		`lakeharbor_cluster_node_up{node="` + nodeLabel + `"} 1`,
		`lakeharbor_cluster_node_open_conns{node="` + nodeLabel + `"} 3`,
		`lakeharbor_cluster_node_partitions{node="` + nodeLabel + `"} 8`,
		`lakeharbor_cluster_rpcs_total{node="` + nodeLabel + `"} 10`,
		`lakeharbor_cluster_rpc_errors_total{node="` + nodeLabel + `"} 1`,
		`lakeharbor_cluster_rpc_seconds{op="scan",quantile="0.99"}`,
		`lakeharbor_cluster_rpc_seconds_count{op="scan"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated metrics missing %q", want)
		}
	}
	// The output must parse as clean exposition text.
	if _, err := promtext.Parse(strings.NewReader(out)); err != nil {
		t.Fatalf("federated output unparseable: %v", err)
	}
}

// TestScrapeFailureCounted: a dead node flips its up gauge, counts a
// failure, and keeps the last good snapshot contributing to the merge.
func TestScrapeFailureCounted(t *testing.T) {
	st := nodenet.NodeState{Component: "lakenode", Ops: map[string]nodenet.OpState{
		"scan": {Count: 5, Latency: histOf(1000)},
	}}
	node := fakeNode(t, st)
	f := New([]string{node.URL}, Options{})
	ctx := context.Background()
	if err := f.ScrapeOnce(ctx); err != nil {
		t.Fatal(err)
	}
	node.Close()
	if err := f.ScrapeOnce(ctx); err == nil {
		t.Fatal("scrape of a dead node reported success")
	}

	out := render(f)
	nodeLabel := strings.TrimPrefix(node.URL, "http://")
	for _, want := range []string{
		"lakeharbor_cluster_nodes_up 0",
		`lakeharbor_cluster_node_up{node="` + nodeLabel + `"} 0`,
		`lakeharbor_cluster_scrape_failures_total{node="` + nodeLabel + `"} 1`,
		"lakeharbor_cluster_scrapes_total 2",
		// Last good snapshot still serves the merged view.
		`lakeharbor_cluster_rpcs_total{node="` + nodeLabel + `"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("failure accounting missing %q\n%s", want, out)
		}
	}
	if f.Merged("scan").Count != 1 {
		t.Fatal("last good histogram lost after scrape failure")
	}
}

// TestTargetNormalization: bare host:port, scheme-prefixed, and full-URL
// targets all resolve to the same scrape shape.
func TestTargetNormalization(t *testing.T) {
	f := New([]string{"10.0.0.1:7201", "http://10.0.0.2:7201", "http://10.0.0.3:7201/debug/state", " "}, Options{})
	want := []string{"10.0.0.1:7201", "10.0.0.2:7201", "10.0.0.3:7201"}
	got := f.Targets()
	if len(got) != len(want) {
		t.Fatalf("targets %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("target %d: %q, want %q", i, got[i], want[i])
		}
	}
}

// render returns the federator's series as one scrape renders them.
func render(f *Federator) string {
	var w obs.Writer
	f.Collect(&w)
	var b strings.Builder
	w.WriteTo(&b) //nolint:errcheck
	return b.String()
}

// TestCollectWhileScraping: rendering runs while scrape rounds land, so the
// race detector sees both sides of the federator's lock.
func TestCollectWhileScraping(t *testing.T) {
	st := nodenet.NodeState{Component: "lakenode", Ops: map[string]nodenet.OpState{
		"scan": {Count: 2, Latency: histOf(1000, 2000)},
	}}
	f := New([]string{fakeNode(t, st).URL, fakeNode(t, st).URL}, Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := f.ScrapeOnce(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if out := render(f); !strings.Contains(out, "lakeharbor_cluster_nodes 2") {
			t.Errorf("render %d:\n%s", i, out)
		}
	}
	<-done
}
