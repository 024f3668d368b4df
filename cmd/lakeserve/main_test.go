package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/httpapi"
	"lakeharbor/internal/store"
	"lakeharbor/internal/tpch"
)

// boot starts run on a loopback listener and returns its base URL once it
// serves, and a stop func that cancels it and requires a nil return.
func boot(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, ln) }()
	url := "http://" + ln.Addr().String()
	ready := make(chan error, 1)
	go func() {
		resp, err := http.Get(url + "/v1/catalog") // queues on the listener until run serves
		if err == nil {
			resp.Body.Close()
		}
		ready <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	case err := <-ready:
		if err != nil {
			t.Fatal(err)
		}
	}
	return url, func() {
		t.Helper()
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	}
}

func get(t *testing.T, url string, out any) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s %v", url, resp.StatusCode, body, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatal(err)
		}
	}
	return string(body)
}

// newOrder is an order dated far outside the generated date domain, so it
// is the only entry of orders_date_idx in its range.
const newOrder = `{"file":"orders","key":["int:9999999"],"text":"9999999|1|99999|1.00"}`

func datedOrders(t *testing.T, url string) int {
	t.Helper()
	var recs []httpapi.RecordJSON
	get(t, url+"/v1/range?file=orders_date_idx&lo=int:99999&hi=int:99999", &recs)
	return len(recs)
}

// TestDurableBootServesMaintainedIndexes drives lakeserve -data end to end
// in-process: an ingested order reaches the date index at once, a reboot
// from a crash image of the data directory (the WAL holds the order) serves
// the same answer from adopted structures without a build, and cancelling
// run writes the shutdown checkpoint.
func TestDurableBootServesMaintainedIndexes(t *testing.T) {
	dir := t.TempDir()
	data, crashed := filepath.Join(dir, "data"), filepath.Join(dir, "crashed")
	flags := func(data string) []string {
		return []string{"-kind", "tpch", "-sf", "0.01", "-data", data, "-interval", "0"}
	}
	url, stop := boot(t, flags(data)...)
	resp, err := http.Post(url+"/v1/ingest", "application/json", strings.NewReader(newOrder))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	if n := datedOrders(t, url); n != 1 {
		t.Fatalf("orders_date_idx returns %d entries for the ingested order's date, want 1", n)
	}

	// The WAL is fsynced per ingest, so a copy of the directory now is what
	// a crash would leave.
	if err := os.Mkdir(crashed, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snap.lake", "wal.log"} {
		raw, err := os.ReadFile(filepath.Join(data, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	url2, stop2 := boot(t, flags(crashed)...)
	if n := datedOrders(t, url2); n != 1 {
		t.Fatalf("recovered orders_date_idx returns %d entries, want 1", n)
	}
	var st httpapi.StructuresJSON
	get(t, url2+"/v1/structures", &st)
	if len(st.Structures) != len(tpch.StructureSpecs()) || st.Counters.BuildsStarted != 0 {
		t.Fatalf("recovered %d structures with %d builds, want %d with 0",
			len(st.Structures), st.Counters.BuildsStarted, len(tpch.StructureSpecs()))
	}
	for _, s := range st.Structures {
		if s.State != "ready" {
			t.Fatalf("recovered %s is %s, want ready", s.Name, s.State)
		}
	}
	metrics := get(t, url2+"/debug/metrics", nil)
	walRecords := -1
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, "lakeharbor_recovery_wal_records "); ok {
			walRecords, _ = strconv.Atoi(v)
		}
	}
	if walRecords < 1 {
		t.Fatalf("lakeharbor_recovery_wal_records = %d, want ≥ 1", walRecords)
	}
	stop2()

	// Cancelling the first server checkpoints the order into its snapshot
	// and empties the WAL.
	stop()
	if fi, err := os.Stat(filepath.Join(data, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after the shutdown checkpoint: %v, %v; want empty", fi, err)
	}
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := store.ReadSnapshotFromPath(context.Background(), filepath.Join(data, "snap.lake"), c); err != nil {
		t.Fatal(err)
	}
	orders, err := c.File("orders")
	if err != nil {
		t.Fatal(err)
	}
	key := tpch.OrderKey(9999999)
	recs, err := orders.Lookup(context.Background(), orders.Partitioner().Partition(key, orders.NumPartitions()), key)
	if err != nil || len(recs) != 1 {
		t.Fatalf("shutdown checkpoint holds %d copies of the ingested order (%v), want 1", len(recs), err)
	}
}
