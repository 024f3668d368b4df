package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/fed"
	"lakeharbor/internal/httpapi"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/sched"
)

// startSidecar runs one lakenode behind its debug sidecar and drives a
// create, an append and a lookup through it, so every per-op family has a
// sample. It returns the sidecar's URL.
func startSidecar(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	srv := nodenet.NewServer(dfs.Local(dfs.NewCluster(dfs.Config{Nodes: 1})), func(string, ...any) {})
	o := nodenet.NewServerObs()
	srv.Observe(o)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := nodenet.Dial(addr.String(), nodenet.Options{}, nil)
	t.Cleanup(func() { c.Close() })
	if err := c.CreateFile(ctx, "f", dfs.Btree, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(ctx, "f", 0, []lake.Record{{Key: "k", Data: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "f", 0, "k"); err != nil {
		t.Fatal(err)
	}
	dbg := httptest.NewServer(nodenet.DebugHandler(srv, o))
	t.Cleanup(dbg.Close)
	return dbg.URL
}

// TestTopRendersServeAndSidecar: one frame of `lakectl top` over a lakeserve
// (one tenant job, two federated lakenodes) and one lakenode sidecar shows
// both identities, the tenant row, both nodes up, and the four latency
// tables those endpoints feed.
func TestTopRendersServeAndSidecar(t *testing.T) {
	ctx := context.Background()
	nodeA, nodeB := startSidecar(t), startSidecar(t)

	cluster := dfs.NewCluster(dfs.Config{Nodes: 2})
	f, err := cluster.CreateFile("events", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		k := keycodec.Int64(i)
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte(fmt.Sprintf("e%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	api := httpapi.New(cluster)
	scheduler, err := sched.New(sched.Options{}, sched.TenantConfig{Name: "etl", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scheduler.Close)
	api.AttachScheduler(scheduler)
	federator := fed.New([]string{nodeA, nodeB}, fed.Options{})
	if err := federator.ScrapeOnce(ctx); err != nil {
		t.Fatal(err)
	}
	api.AttachCollector(federator)
	serve := httptest.NewServer(api)
	t.Cleanup(serve.Close)

	req, err := http.NewRequest("GET", serve.URL+"/v1/jobs/range?file=events&lo=int:0&hi=int:19&limit=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(httpapi.TenantHeader, "etl")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant job status %d", resp.StatusCode)
	}

	var out strings.Builder
	renderTop(&out, serve.Client(), []topTarget{newTopTarget(serve.URL), newTopTarget(nodeA)})
	frame := out.String()
	lines := strings.Split(frame, "\n")
	hasLine := func(prefix string, fields ...string) bool {
		for _, l := range lines {
			if !strings.HasPrefix(l, prefix) {
				continue
			}
			got := strings.Fields(l)
			if len(got) < len(fields) {
				continue
			}
			match := true
			for i, f := range fields {
				if got[i] != f {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	}

	for _, want := range []string{"  lakeserve (go", "  lakenode (go"} {
		if !hasLine(want) {
			t.Errorf("frame lacks identity line %q", want)
		}
	}
	if !hasLine("  TENANT", "TENANT", "INFLIGHT", "QUEUED", "DISPATCHED", "DEFICIT") || !hasLine("  etl ", "etl") {
		t.Errorf("frame lacks the tenant table with an etl row")
	}
	for _, node := range []string{nodeA, nodeB} {
		name := strings.TrimPrefix(node, "http://")
		if !hasLine("  "+name, name, "up") {
			t.Errorf("frame lacks node row %q reading up", name)
		}
	}
	for _, title := range []string{"cluster RPC latency:", "node RPC latency:", "task latency:", "queue wait:"} {
		if !hasLine("  " + title) {
			t.Errorf("frame lacks latency table %q", title)
		}
	}
	if t.Failed() {
		t.Logf("frame:\n%s", frame)
	}
}
