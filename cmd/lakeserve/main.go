// Command lakeserve starts the HTTP admin API (internal/httpapi) over a
// demo lake — a generated TPC-H or claims dataset, or a restored snapshot.
//
// Usage:
//
//	go run ./cmd/lakeserve -addr :8080 -kind tpch   [-sf 0.1]
//	go run ./cmd/lakeserve -addr :8080 -kind claims [-claims 10000]
//	go run ./cmd/lakeserve -addr :8080 -snapshot lake.snap
//	go run ./cmd/lakeserve -addr :8080 -kind tpch -data ./lakedata
//	go run ./cmd/lakeserve -addr :8080 -nodes 127.0.0.1:7101,127.0.0.1:7102
//	go run ./cmd/lakeserve -addr :8080 -nodes 127.0.0.1:7101 -scrape 127.0.0.1:7201
//	go run ./cmd/lakeserve -addr :8080 -kind tpch -tenants 'etl:9,adhoc:1:8:2' -workers 256
//
// Then e.g.:
//
//	curl localhost:8080/v1/catalog
//	curl 'localhost:8080/v1/lookup?file=orders&key=int:7'
//	curl 'localhost:8080/v1/range?file=orders_date_idx&lo=int:0&hi=int:30&limit=5'
//
// Every lakeserve registers its -kind's structure specs with one lifecycle
// manager, which keeps each ready structure in sync with POST /v1/ingest.
// Generated datasets build the structures through it; -snapshot recovers a
// snapshot (with no WAL) and adopts its structure registry. GET
// /v1/structures lists them and POST /v1/structures/{name}/evict or /build
// exercises eviction and rebuild-on-demand over HTTP. With -budget N the
// manager keeps at most N modeled bytes of structures resident (cold ones
// are evicted; re-building is a POST away).
//
// Every lakeserve accepts post-hoc scripted access methods: POST
// /v1/scripts registers a sandboxed script (compiled and validated at
// POST), and POST /v1/structures builds a structure whose partition-key and
// index-key extractors are script functions, managed by the same lifecycle
// manager as compiled structures. -script-steps and -script-alloc set the
// per-invocation sandbox budgets. With -data, scripts and their structure
// bindings ride the checkpoint as source text: recovery re-compiles them
// and re-adopts their structures without rebuilding.
//
// With -data DIR the server is durable: when DIR/snap.lake exists it
// recovers from it and DIR/wal.log through store.Recover (structures come
// back ready and maintained without rebuilding, recovery stats land in
// /debug/metrics), otherwise it loads the dataset and writes the initial
// checkpoint. While serving, ingests are WAL-logged write-ahead, catalog
// mutations are versioned and WAL-logged through the catalog service, and
// checkpoints are taken periodically (-interval), after every structure
// build finalizes, and on SIGINT/SIGTERM before exit.
//
// With -nodes host:port,... the data plane is real: each address is a
// running lakenode process (cmd/lakenode) and partition data lives behind
// multiplexed, hedged nodenet clients instead of in-process sim nodes. The
// catalog stays local to lakeserve; -data and -snapshot are rejected in
// this mode because durability belongs with the partition owners.
// /debug/metrics then additionally exposes lakeharbor_net_* series —
// open connections, attempts in flight, hedge fires/wins/suppressed duplicates, and
// an RPC latency quantile summary.
//
// With -scrape host:port,... (the lakenodes' -debug sidecar addresses) the
// server federates the fleet: it scrapes every node's /debug/state on
// -scrape-interval and merges the per-node histograms into
// lakeharbor_cluster_* series — per-node up/down, conns, partitions, RPC
// and byte counters, and cluster-wide RPC latency quantiles computed over
// the losslessly merged distributions. Scrape failures keep the last good
// snapshot and count into lakeharbor_cluster_scrape_failures_total.
//
// With -tenants name:weight[:maxInFlight[:maxJobs]],... the server runs
// multi-tenant: all job endpoints (/v1/jobs/...) require an X-Lake-Tenant
// header, dispatch through one shared weighted-fair scheduler (-workers
// caps cluster-wide parallelism, -shed bounds the queue before 429
// load-shedding), and /debug/metrics grows lakeharbor_tenant_* series.
// Unknown tenants get 403; over-quota or overloaded submissions get 429
// with a Retry-After the client can honor.
//
// Prometheus can scrape GET /debug/metrics on the same -addr (text
// exposition format: execution counters, latency quantile summaries,
// storage counters, structure lifecycle counters, catalog version, and
// recovery gauges); there is no separate metrics listener. Pass -pprof to
// additionally expose the Go runtime profiler under /debug/pprof/ — it is
// off by default because profile endpoints should not be reachable on an
// unprotected admin port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lakeharbor/internal/advisor"
	"lakeharbor/internal/catalog"
	"lakeharbor/internal/claims"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/fed"
	"lakeharbor/internal/httpapi"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/sched"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
	"lakeharbor/internal/tpch"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
}

// run boots a server from its command-line flags and serves on ln (nil
// listens on -addr) until ctx is cancelled; a durable server then writes
// its shutdown checkpoint before run returns.
func run(ctx context.Context, args []string, ln net.Listener) error {
	fs := flag.NewFlagSet("lakeserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		kind     = fs.String("kind", "tpch", "demo dataset, and the structure specs to register: tpch | claims")
		snapshot = fs.String("snapshot", "", "recover this snapshot (no WAL) instead of generating data")
		dataDir  = fs.String("data", "", "durable data directory (snap.lake + wal.log): recover on boot, checkpoint while serving")
		interval = fs.Duration("interval", 30*time.Second, "periodic checkpoint interval with -data (0 = only on signal and build)")
		sf       = fs.Float64("sf", 0.1, "TPC-H micro scale factor")
		nClaims  = fs.Int("claims", 10000, "number of claims")
		nodes    = fs.String("nodes", "4", "simulated node count, or comma-separated lakenode addresses (host:port,...) for a networked data plane")
		seed     = fs.Int64("seed", 1, "generator seed")
		budget   = fs.Int64("budget", 0, "structure residency budget in modeled bytes (0 = unlimited)")
		tenants  = fs.String("tenants", "", "multi-tenant admission: name:weight[:maxInFlight[:maxJobs]],... — job endpoints then require X-Lake-Tenant and share one scheduler")
		workers  = fs.Int("workers", 0, "cluster-wide worker ceiling for the shared scheduler (0 = sched default; needs -tenants)")
		shed     = fs.Int("shed", 0, "queued-task depth above which job admission sheds with 429 (0 = sched default, negative = never; needs -tenants)")
		scrape   = fs.String("scrape", "", "comma-separated lakenode debug addresses (host:port,...) to federate into /debug/metrics as lakeharbor_cluster_* series")
		scrapeIv = fs.Duration("scrape-interval", 2*time.Second, "node scrape interval with -scrape")
		enablePP = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		scrSteps = fs.Int64("script-steps", script.DefaultSteps, "per-invocation step budget for registered scripts")
		scrAlloc = fs.Int64("script-alloc", script.DefaultAllocBytes, "per-invocation allocation budget in bytes for registered scripts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := structureSpecs(*kind)
	if err != nil {
		return err
	}
	if *tenants == "" && (*workers != 0 || *shed != 0) {
		return errors.New("lakeserve: -workers/-shed need -tenants")
	}
	cluster, netStats, err := buildCluster(*nodes)
	if err != nil {
		return err
	}
	if netStats != nil {
		// Durability and snapshot restore stay with the sim data plane: the
		// WAL/checkpoint machinery owns local partitions, while a networked
		// cluster's partitions live inside the lakenode processes.
		if *dataDir != "" || *snapshot != "" {
			return errors.New("lakeserve: -data and -snapshot require a simulated data plane (integer -nodes)")
		}
		fmt.Printf("networked data plane: %s\n", *nodes)
	}

	// The script registry is always live: POST /v1/scripts works on every
	// lakeserve, durable or not. The budgets are server policy, not script
	// data, so they come from flags rather than the snapshot.
	scriptReg := script.NewRegistry(script.Limits{Steps: *scrSteps, AllocBytes: *scrAlloc})
	adv := advisor.New(cluster, advisor.Config{})
	// Every structure that finishes building requests a checkpoint, so it
	// reaches the snapshot promptly (coalescing with one already pending).
	trigger := make(chan struct{}, 1)
	// Builds and index maintenance outlive the serving context: shutdown
	// stops serving, then checkpoints the structures it leaves behind.
	mgr := indexer.NewManager(context.WithoutCancel(ctx), cluster, indexer.ManagerOptions{
		StructureBudget: *budget,
		RebuildCost:     adv.BuildCostNs,
		OnFinalize: func(_ string, st indexer.State) {
			if st == indexer.StateReady {
				select {
				case trigger <- struct{}{}:
				default:
				}
			}
		},
	})
	for _, spec := range specs {
		if err := mgr.Register(spec); err != nil {
			return err
		}
	}

	snapPath, walPath := *snapshot, ""
	dataSnap, dataWAL := filepath.Join(*dataDir, "snap.lake"), filepath.Join(*dataDir, "wal.log")
	if *dataDir != "" {
		if _, err := os.Stat(dataSnap); err == nil {
			snapPath, walPath = dataSnap, dataWAL
		}
	}
	var rec *store.Recovery
	if snapPath != "" {
		if rec, err = store.Recover(ctx, snapPath, walPath, cluster, mgr, scriptReg); err != nil {
			return fmt.Errorf("lakeserve: recover %s: %w", snapPath, err)
		}
		fmt.Printf("recovered %s: %d files, %d WAL records, %d structures ready / %d evicted, %d scripts (catalog v%d) in %v\n",
			snapPath, rec.SnapshotFiles, rec.WALRecords, rec.Structures.Recovered, rec.Structures.Evicted,
			rec.Scripts, rec.CatalogVersion, rec.Duration.Round(time.Millisecond))
	} else {
		if *kind == "tpch" {
			err = tpch.Load(ctx, cluster, tpch.Generate(tpch.Config{SF: *sf, Seed: *seed}), 0)
		} else {
			err = claims.LoadLakeRaw(ctx, cluster, claims.Generate(claims.Config{Claims: *nClaims, Seed: *seed}), 0)
		}
		if err == nil {
			err = mgr.EnsureAll(ctx)
		}
		if err != nil {
			return err
		}
		fmt.Printf("loaded %s with %d managed structures\n", *kind, len(mgr.Names()))
	}

	api := httpapi.New(cluster)
	if *tenants != "" {
		cfgs, err := parseTenants(*tenants)
		if err != nil {
			return err
		}
		scheduler, err := sched.New(sched.Options{Workers: *workers, ShedDepth: *shed}, cfgs...)
		if err != nil {
			return err
		}
		api.AttachScheduler(scheduler)
		fmt.Printf("multi-tenant admission: %d tenants, %d-worker shared pool (set %s on job requests)\n",
			len(cfgs), scheduler.Stats().Workers, httpapi.TenantHeader)
	}
	api.AttachStructures(mgr)
	api.AttachScripts(scriptReg)
	if netStats != nil {
		api.AttachCollector(netStats)
	}
	if *scrape != "" {
		federator := fed.New(strings.Split(*scrape, ","), fed.Options{Interval: *scrapeIv})
		if err := federator.ScrapeOnce(ctx); err != nil {
			log.Printf("lakeserve: initial node scrape: %v", err)
		}
		go federator.Start(ctx)
		api.AttachCollector(federator)
		fmt.Printf("federating node metrics from %s every %v\n", *scrape, *scrapeIv)
	}
	api.AttachRecovery(rec) // nil when the lake was generated
	var handler http.Handler = api
	var pers *persistence
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return err
		}
		wal, err := store.OpenWAL(dataWAL)
		if err != nil {
			return err
		}
		defer wal.Close()
		pers = &persistence{snap: dataSnap, cluster: cluster, wal: wal, mgr: mgr, scripts: scriptReg,
			trigger: trigger, stopped: make(chan struct{})}
		svc := catalog.Attach(cluster, wal)
		// Rebuild-cost modeling now reads transactional catalog snapshots
		// instead of racing the live catalog.
		adv.AttachCatalog(svc)
		// The initial checkpoint covers everything loaded or recovered so
		// far, the boot's builds included, and empties the WAL; from here on
		// the log only carries the delta since the latest checkpoint.
		if err := pers.checkpoint(); err != nil {
			return fmt.Errorf("lakeserve: initial checkpoint: %w", err)
		}
		select {
		case <-trigger:
		default:
		}
		go pers.loop(ctx, *interval)
		api.SetIngestHook(pers.logIngest)
		api.AttachCatalog(svc)
		handler = pers.guard(api)
		fmt.Printf("durable in %s (checkpoint interval %v)\n", *dataDir, *interval)
	}
	if *enablePP {
		// Wrap the API in an outer mux so the profiler rides the same
		// listener without importing pprof's side-effect registration into
		// the API package.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		fmt.Println("pprof enabled under /debug/pprof/")
	}
	if ln == nil {
		if ln, err = net.Listen("tcp", *addr); err != nil {
			return err
		}
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("serving LakeHarbor API on %s\n", ln.Addr())
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// Finish in-flight requests, then checkpoint what they left behind.
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(shutdownCtx) // a timeout still gets the checkpoint
	if pers == nil {
		return err
	}
	<-pers.stopped
	if err := pers.checkpoint(); err != nil {
		return fmt.Errorf("lakeserve: shutdown checkpoint: %w", err)
	}
	fmt.Println("checkpointed; exiting")
	return err
}

// structureSpecs is the -kind → structure specs switch: the compiled access
// methods every lakeserve of that kind registers, whether it generates the
// data or recovers it.
func structureSpecs(kind string) ([]indexer.Spec, error) {
	switch kind {
	case "tpch":
		return tpch.StructureSpecs(), nil
	case "claims":
		return []indexer.Spec{claims.DiseaseIndexSpec()}, nil
	}
	return nil, fmt.Errorf("lakeserve: unknown -kind %q", kind)
}

// parseTenants turns a -tenants spec — comma-separated
// name:weight[:maxInFlight[:maxJobs]] entries — into scheduler tenant
// configs. Validation beyond syntax (positive weights, duplicate names)
// belongs to sched.New, which rejects unschedulable configs.
func parseTenants(spec string) ([]sched.TenantConfig, error) {
	var cfgs []sched.TenantConfig
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("lakeserve: -tenants %q: want name:weight[:maxInFlight[:maxJobs]]", entry)
		}
		cfg := sched.TenantConfig{Name: parts[0]}
		nums := []*int{&cfg.Weight, &cfg.MaxInFlight, &cfg.MaxJobs}
		for i, p := range parts[1:] {
			v, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("lakeserve: -tenants %q: %w", entry, err)
			}
			*nums[i] = v
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("lakeserve: -tenants: no tenant specs in %q", spec)
	}
	return cfgs, nil
}

// buildCluster interprets -nodes. An integer means an in-process simulated
// cluster with that many nodes. A comma-separated host:port list means a
// networked data plane: one multiplexed, hedged nodenet client per lakenode
// address, all sharing one stats block so /debug/metrics can report attempts
// in flight, hedge counters, and RPC latency across the fleet. The stats
// pointer is nil for sim clusters.
func buildCluster(spec string) (*dfs.Cluster, *nodenet.Stats, error) {
	if n, err := strconv.Atoi(spec); err == nil {
		if n <= 0 {
			return nil, nil, fmt.Errorf("lakeserve: -nodes %d: need at least one node", n)
		}
		return dfs.NewCluster(dfs.Config{Nodes: n}), nil, nil
	}
	stats := nodenet.NewStats()
	var transports []dfs.NodeTransport
	for _, addr := range strings.Split(spec, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return nil, nil, fmt.Errorf("lakeserve: -nodes %q: %w", spec, err)
		}
		transports = append(transports, nodenet.Dial(addr, nodenet.Options{}, stats))
	}
	cluster, err := dfs.NewClusterWithTransports(dfs.Config{}, transports)
	if err != nil {
		return nil, nil, err
	}
	return cluster, stats, nil
}

// persistence ties the durable pieces together. Ingests hold mu shared
// from their WAL append to their cluster append, and a checkpoint holds it
// alone from its snapshot to the WAL truncate, so every acknowledged record
// is covered by exactly one of checkpoint or log.
type persistence struct {
	snap    string // the checkpoint's path
	cluster *dfs.Cluster
	wal     *store.WAL
	mgr     *indexer.Manager
	scripts *script.Registry
	trigger chan struct{}
	stopped chan struct{} // closed once loop has returned

	mu sync.RWMutex
}

// guard makes each POST /v1/ingest one step with respect to checkpoints.
func (p *persistence) guard(api http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/ingest" {
			p.mu.RLock()
			defer p.mu.RUnlock()
		}
		api.ServeHTTP(w, r)
	})
}

// logIngest is the write-ahead ingest hook: the record is framed, flushed,
// and fsynced before httpapi applies it to the cluster.
func (p *persistence) logIngest(file string, partKey lake.Key, rec lake.Record) error {
	if err := p.wal.Append(file, partKey, rec); err != nil {
		return err
	}
	return p.wal.Sync()
}

// checkpoint writes the lake's durable state (store.Checkpoint) and
// truncates the WAL it now covers. Its context is never cancelled: a
// shutdown checkpoint must finish.
func (p *persistence) checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := store.Checkpoint(context.Background(), p.snap, p.cluster, p.mgr, p.scripts); err != nil {
		return err
	}
	return p.wal.Truncate()
}

// loop runs periodic and requested checkpoints until ctx is cancelled.
func (p *persistence) loop(ctx context.Context, every time.Duration) {
	defer close(p.stopped)
	var tick <-chan time.Time
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
		case <-p.trigger:
			// Brief settle so a burst of build finalizations coalesces into
			// one checkpoint.
			time.Sleep(100 * time.Millisecond)
			for {
				select {
				case <-p.trigger:
					continue
				default:
				}
				break
			}
		}
		if err := p.checkpoint(); err != nil {
			log.Printf("checkpoint: %v", err)
		}
	}
}
