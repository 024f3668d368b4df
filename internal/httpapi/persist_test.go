package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lakeharbor/internal/catalog"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/store"
)

// Tests for the durable-serving surfaces: the versioned-catalog endpoint,
// the write-ahead ingest hook, and the recovery metrics.

func TestCatalogVersionEndpoint(t *testing.T) {
	// Without an attached catalog service the endpoint 404s.
	srv, c := newTestServer(t)
	if code := getJSON(t, srv.URL+"/v1/catalog/version", nil); code != 404 {
		t.Fatalf("unattached status %d, want 404", code)
	}

	// Attached: versions are served and track mutations.
	svc := catalog.Attach(c, nil)
	api := New(c)
	api.AttachCatalog(svc)
	srv2 := httptest.NewServer(api)
	t.Cleanup(srv2.Close)

	var got struct {
		Version uint64 `json:"version"`
		Files   int    `json:"files"`
	}
	if code := getJSON(t, srv2.URL+"/v1/catalog/version", &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Version != c.CatalogVersion() || got.Files != len(c.FileNames()) {
		t.Fatalf("got %+v, cluster at v%d with %d files", got, c.CatalogVersion(), len(c.FileNames()))
	}
	before := got.Version
	if _, err := c.CreateFile("bump", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv2.URL+"/v1/catalog/version", &got); code != 200 || got.Version != before+1 {
		t.Fatalf("after create: %+v, want version %d", got, before+1)
	}
}

// TestIngestHookRunsWriteAhead pins the WAL-first ordering: the hook sees
// the record before the cluster does, and a hook failure rejects the ingest
// without applying it.
func TestIngestHookRunsWriteAhead(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	if _, err := c.CreateFile("events", dfs.Btree, 2, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	api := New(c)
	var hooked []string
	var fail bool
	api.SetIngestHook(func(file string, partKey lake.Key, rec lake.Record) error {
		// Write-ahead: at hook time the record must NOT be in the cluster.
		f, err := c.File(file)
		if err != nil {
			return err
		}
		p := f.Partitioner().Partition(partKey, f.NumPartitions())
		if recs, _ := f.Lookup(ctx, p, rec.Key); len(recs) != 0 {
			t.Error("record reached the cluster before the WAL hook")
		}
		if fail {
			return errors.New("injected wal failure")
		}
		hooked = append(hooked, file)
		return nil
	})
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)

	post := func(key int64) int {
		body, _ := json.Marshal(IngestRequest{
			File: "events", Key: []string{fmt.Sprintf("int:%d", key)}, Text: "x",
		})
		resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(1); code != 201 {
		t.Fatalf("ingest status %d", code)
	}
	if len(hooked) != 1 {
		t.Fatalf("hook called %d times, want 1", len(hooked))
	}

	// A failing hook must fail the ingest and keep the record out.
	fail = true
	if code := post(2); code < 500 {
		t.Fatalf("ingest with failing hook returned %d, want 5xx", code)
	}
	f, _ := c.File("events")
	k := keycodec.Int64(2)
	p := f.Partitioner().Partition(k, f.NumPartitions())
	if recs, _ := f.Lookup(ctx, p, k); len(recs) != 0 {
		t.Fatal("rejected ingest still reached the cluster")
	}
}

func TestPersistenceMetrics(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := c.CreateFile("m", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	svc := catalog.Attach(c, nil)
	api := New(c)
	api.AttachCatalog(svc)
	api.AttachRecovery(&store.Recovery{
		SnapshotFiles: 3, WALRecords: 17,
		Structures:     indexer.RecoverStats{Recovered: 2, Evicted: 1},
		CatalogVersion: 9, Duration: 5 * time.Millisecond,
	})
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		fmt.Sprintf("lakeharbor_catalog_version %d", c.CatalogVersion()),
		"lakeharbor_recovery_recovered 1",
		"lakeharbor_recovery_snapshot_files 3",
		"lakeharbor_recovery_wal_records 17",
		"lakeharbor_recovery_structures_ready 2",
		"lakeharbor_recovery_structures_evicted 1",
		"lakeharbor_recovery_catalog_version 9",
		"lakeharbor_recovery_duration_seconds 0.005",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
