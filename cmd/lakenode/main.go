// Command lakenode runs one storage node of the networked data plane: a
// single-node in-process store (the same partition structures the sim uses)
// exposed over the compact length-prefixed batch RPC in internal/nodenet.
//
// A lakeserve front end started with -nodes host:port,... connects one
// nodenet client per lakenode and drives lookups, scans, and appends over
// TCP; partition i of every file is owned by the i-th address in that list,
// so each lakenode only ever sees its own partitions' data.
//
// Usage:
//
//	go run ./cmd/lakenode -addr 127.0.0.1:7101 -debug 127.0.0.1:7201
//	go run ./cmd/lakenode -addr 127.0.0.1:7102 -debug 127.0.0.1:7202
//	go run ./cmd/lakeserve -addr :8080 -kind tpch -nodes 127.0.0.1:7101,127.0.0.1:7102
//
// With -debug the node serves an HTTP introspection sidecar on a separate
// listener: /healthz (liveness), /readyz (503 once draining),
// /debug/metrics (lakeharbor_node_* Prometheus series), /debug/state (the
// JSON snapshot lakeserve's federation scrapes), and /debug/rpcs (recent
// RPC spans with their job/stage/tenant attribution).
//
// The process serves until SIGINT/SIGTERM, then drains gracefully:
// /readyz flips to 503, the RPC listener closes, in-flight requests finish
// and answer, and after at most -drain-grace the process exits.
// -drain-linger keeps the sidecar answering (503) for that long after the
// drain completes, so health pollers observe the not-ready transition
// before the process disappears. Data is in-memory only: durability
// (-data/-snapshot) stays with the sim data plane for now.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/nodenet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		log.Fatalf("lakenode: %v", err)
	}
}

// run boots a node from its command-line flags and serves the node RPC on ln
// (nil listens on -addr) until ctx is cancelled, then drains.
func run(ctx context.Context, args []string, ln net.Listener) error {
	fs := flag.NewFlagSet("lakenode", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:7101", "TCP listen address for the node RPC")
		debug  = fs.String("debug", "", "HTTP listen address for the introspection sidecar (healthz/readyz/debug, empty = off)")
		grace  = fs.Duration("drain-grace", 5*time.Second, "max time to wait for in-flight RPCs on shutdown")
		linger = fs.Duration("drain-linger", 0, "keep the debug sidecar up (answering 503 on /readyz) this long after draining")
		quiet  = fs.Bool("quiet", false, "suppress per-connection error logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var err error
	if ln == nil {
		if ln, err = net.Listen("tcp", *addr); err != nil {
			return err
		}
	}
	// One lakenode hosts the partitions the front end routes to it. The
	// backing store is a single-node cluster with no simulated cost: real
	// sockets provide the latency now.
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv := nodenet.NewServer(dfs.Local(dfs.NewCluster(dfs.Config{Nodes: 1})), logf)
	obs := nodenet.NewServerObs()
	srv.Observe(obs)
	srv.Serve(ln) //nolint:errcheck // a new server is open
	log.Printf("lakenode: serving node RPC on %s", ln.Addr())

	var dbg *http.Server
	if *debug != "" {
		dbg = &http.Server{Addr: *debug, Handler: nodenet.DebugHandler(srv, obs)}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("lakenode: debug sidecar: %v", err)
			}
		}()
		log.Printf("lakenode: debug sidecar on %s", *debug)
	}

	<-ctx.Done()
	// Graceful drain: readiness flips first (the sidecar stays up so
	// orchestrators see the 503), then in-flight RPCs finish.
	log.Printf("lakenode: draining (grace %v)", *grace)
	err = srv.Drain(*grace)
	if dbg != nil {
		time.Sleep(*linger)
		err = errors.Join(err, dbg.Close())
	}
	log.Printf("lakenode: drained; exiting")
	return err
}
