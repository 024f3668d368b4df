package main

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/nodenet"
)

// readyz returns the sidecar's /readyz status code, or 0 when it does not
// answer.
func readyz(url string) int {
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestNodeBootServesAndDrains boots a node in-process, drives a file through
// it over the wire, and cancels it: readiness must flip to 503 while the
// sidecar lingers, run must return nil, and the client must hold no
// connection once closed.
func TestNodeBootServesAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := free.Addr().String()
	free.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-debug", debugAddr, "-drain-linger", "500ms", "-quiet"}, ln)
	}()

	stats := nodenet.NewStats()
	c := nodenet.Dial(ln.Addr().String(), nodenet.Options{}, stats)
	if err := c.CreateFile(ctx, "f", dfs.Btree, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	recs := []lake.Record{{Key: "a", Data: []byte("1")}, {Key: "b", Data: []byte("2")}}
	if err := c.Append(ctx, "f", 0, recs); err != nil {
		t.Fatal(err)
	}
	got, err := c.LookupBatch(ctx, "f", 0, []lake.Key{"b", "zz", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[0]) != 1 || string(got[0][0].Data) != "2" || len(got[1]) != 0 ||
		len(got[2]) != 1 || string(got[2][0].Data) != "1" {
		t.Fatalf("LookupBatch(b, zz, a) = %v", got)
	}

	url := "http://" + debugAddr
	waitStatus := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); readyz(url) != want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("/readyz never answered %d", want)
			}
		}
	}
	waitStatus(http.StatusOK)

	cancel()
	waitStatus(http.StatusServiceUnavailable)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := stats.OpenConns(); n != 0 {
		t.Fatalf("%d open connections after Close", n)
	}
}
