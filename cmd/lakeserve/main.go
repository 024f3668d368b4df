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
// Generated datasets build their structures through the lifecycle manager,
// so GET /v1/structures lists them and POST /v1/structures/{name}/evict or
// /build exercises eviction and rebuild-on-demand over HTTP. With -budget N
// the manager keeps at most N modeled bytes of structures resident (cold
// ones are evicted; re-building is a POST away). Snapshot restores carry no
// structure registry, so those servers run without lifecycle endpoints.
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
// With -data DIR the server is durable: on boot it recovers from
// DIR/snap.lake + DIR/wal.log when they exist (structures come back ready
// without rebuilding, recovery stats land in /debug/metrics), otherwise it
// generates the dataset and writes the initial checkpoint. While serving,
// ingests are WAL-logged write-ahead, catalog mutations are versioned and
// WAL-logged through the catalog service, and checkpoints are taken
// periodically (-interval), after every structure build finalizes, and on
// SIGINT/SIGTERM before exit.
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
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		kind     = flag.String("kind", "tpch", "demo dataset: tpch | claims")
		snapshot = flag.String("snapshot", "", "restore this snapshot instead of generating data")
		dataDir  = flag.String("data", "", "durable data directory (snap.lake + wal.log): recover on boot, checkpoint while serving")
		interval = flag.Duration("interval", 30*time.Second, "periodic checkpoint interval with -data (0 = only on signal and build)")
		sf       = flag.Float64("sf", 0.1, "TPC-H micro scale factor")
		nClaims  = flag.Int("claims", 10000, "number of claims")
		nodes    = flag.String("nodes", "4", "simulated node count, or comma-separated lakenode addresses (host:port,...) for a networked data plane")
		seed     = flag.Int64("seed", 1, "generator seed")
		budget   = flag.Int64("budget", 0, "structure residency budget in modeled bytes (0 = unlimited)")
		tenants  = flag.String("tenants", "", "multi-tenant admission: name:weight[:maxInFlight[:maxJobs]],... — job endpoints then require X-Lake-Tenant and share one scheduler")
		workers  = flag.Int("workers", 0, "cluster-wide worker ceiling for the shared scheduler (0 = sched default; needs -tenants)")
		shed     = flag.Int("shed", 0, "queued-task depth above which job admission sheds with 429 (0 = sched default, negative = never; needs -tenants)")
		scrape   = flag.String("scrape", "", "comma-separated lakenode debug addresses (host:port,...) to federate into /debug/metrics as lakeharbor_cluster_* series")
		scrapeIv = flag.Duration("scrape-interval", 2*time.Second, "node scrape interval with -scrape")
		enablePP = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		scrSteps = flag.Int64("script-steps", script.DefaultSteps, "per-invocation step budget for registered scripts")
		scrAlloc = flag.Int64("script-alloc", script.DefaultAllocBytes, "per-invocation allocation budget in bytes for registered scripts")
	)
	flag.Parse()
	ctx := context.Background()
	cluster, netStats, err := buildCluster(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	if netStats != nil {
		// Durability and snapshot restore stay with the sim data plane: the
		// WAL/checkpoint machinery owns local partitions, while a networked
		// cluster's partitions live inside the lakenode processes.
		if *dataDir != "" || *snapshot != "" {
			log.Fatal("lakeserve: -data and -snapshot require a simulated data plane (integer -nodes)")
		}
		fmt.Printf("networked data plane: %s\n", *nodes)
	}

	// The script registry is always live: POST /v1/scripts works on every
	// lakeserve, durable or not. The budgets are server policy, not script
	// data, so they come from flags rather than the snapshot.
	scriptReg := script.NewRegistry(script.Limits{Steps: *scrSteps, AllocBytes: *scrAlloc})

	var pers *persistence
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatal(err)
		}
		pers = &persistence{dir: *dataDir, cluster: cluster, trigger: make(chan struct{}, 1)}
	}
	adv := advisor.New(cluster, advisor.Config{})
	mopts := indexer.ManagerOptions{
		StructureBudget: *budget,
		RebuildCost:     adv.BuildCostNs,
		OnFinalize: func(name string, st indexer.State) {
			if st == indexer.StateReady && pers != nil {
				pers.requestCheckpoint()
			}
		},
	}

	var (
		mgr       *indexer.Manager
		recovered bool
		recInfo   httpapi.RecoveryInfo
	)
	if pers != nil {
		if _, err := os.Stat(pers.snapPath()); err == nil {
			start := time.Now()
			meta, err := store.ReadSnapshotFromPath(ctx, pers.snapPath(), cluster)
			if err != nil {
				log.Fatalf("recover: snapshot: %v", err)
			}
			snapFiles := len(cluster.FileNames())
			applied := 0
			if _, err := os.Stat(pers.walPath()); err == nil {
				applied, err = store.ReplayWAL(ctx, pers.walPath(), cluster)
				if err != nil {
					log.Fatalf("recover: wal replay: %v", err)
				}
			}
			// Compiled specs are re-registered from code (their extractor
			// functions cannot be serialized); scripted specs come back from
			// the snapshot itself — sources re-compile into the registry and
			// bindings re-resolve into Specs. Recover then matches the
			// checkpointed registry entries by name and adopts the restored
			// structures, scripted and compiled alike, without rebuilding.
			mgr = managerFor(ctx, cluster, *kind, mopts)
			for _, pe := range meta.Scripts {
				if _, err := scriptReg.Put(pe.Name, pe.Source); err != nil {
					log.Fatalf("recover: script %q: %v", pe.Name, err)
				}
			}
			if len(meta.ScriptSpecs) > 0 && mgr == nil {
				mgr = indexer.NewManager(ctx, cluster, mopts)
			}
			for _, b := range meta.ScriptSpecs {
				spec, err := scriptReg.Bind(b)
				if err != nil {
					log.Fatalf("recover: script binding %q: %v", b.Structure, err)
				}
				if err := mgr.Register(spec); err != nil {
					log.Fatalf("recover: script structure %q: %v", b.Structure, err)
				}
			}
			var stats indexer.RecoverStats
			if mgr != nil {
				stats = mgr.Recover(meta.Structures)
			}
			recovered = true
			recInfo = httpapi.RecoveryInfo{
				Recovered:         true,
				SnapshotFiles:     snapFiles,
				WALRecords:        applied,
				StructuresReady:   stats.Recovered,
				StructuresEvicted: stats.Evicted,
				CatalogVersion:    meta.CatalogVersion,
				Duration:          time.Since(start),
			}
			fmt.Printf("recovered %s: %d files, %d WAL records, %d structures ready / %d evicted, %d scripts (catalog v%d) in %v\n",
				*dataDir, snapFiles, applied, stats.Recovered, stats.Evicted, len(meta.Scripts),
				meta.CatalogVersion, recInfo.Duration.Round(time.Millisecond))
		}
	}
	if !recovered {
		switch {
		case *snapshot != "":
			if err := store.RestoreFromPath(ctx, *snapshot, cluster); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("restored %s (%d files)\n", *snapshot, len(cluster.FileNames()))
		case *kind == "tpch":
			ds := tpch.Generate(tpch.Config{SF: *sf, Seed: *seed})
			if err := tpch.Load(ctx, cluster, ds, 0); err != nil {
				log.Fatal(err)
			}
			m, err := tpch.BuildManaged(ctx, cluster, mopts)
			if err != nil {
				log.Fatal(err)
			}
			mgr = m
			fmt.Printf("loaded TPC-H SF=%g with managed structures\n", *sf)
		case *kind == "claims":
			corpus := claims.Generate(claims.Config{Claims: *nClaims, Seed: *seed})
			if err := claims.LoadLakeRaw(ctx, cluster, corpus, 0); err != nil {
				log.Fatal(err)
			}
			mgr = managerFor(ctx, cluster, *kind, mopts)
			if err := mgr.Ensure(ctx, claims.IdxClaimsDise); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("loaded %d claims with managed disease index\n", *nClaims)
		default:
			log.Fatalf("unknown -kind %q", *kind)
		}
	}

	api := httpapi.New(cluster)
	if *tenants != "" {
		cfgs, err := parseTenants(*tenants)
		if err != nil {
			log.Fatal(err)
		}
		scheduler, err := sched.New(sched.Options{Workers: *workers, ShedDepth: *shed}, cfgs...)
		if err != nil {
			log.Fatal(err)
		}
		api.AttachScheduler(scheduler)
		fmt.Printf("multi-tenant admission: %d tenants, %d-worker shared pool (set %s on job requests)\n",
			len(cfgs), scheduler.Stats().Workers, httpapi.TenantHeader)
	} else if *workers != 0 || *shed != 0 {
		log.Fatal("lakeserve: -workers/-shed need -tenants")
	}
	if mgr != nil {
		api.AttachStructures(mgr)
	}
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
	if pers != nil {
		wal, err := store.OpenWAL(pers.walPath())
		if err != nil {
			log.Fatal(err)
		}
		pers.wal = wal
		pers.mgr = mgr
		pers.scripts = scriptReg
		pers.svc = catalog.Attach(cluster, wal)
		// Rebuild-cost modeling now reads transactional catalog snapshots
		// instead of racing the live catalog.
		adv.AttachCatalog(pers.svc)
		// The initial checkpoint covers everything loaded or recovered so
		// far and empties the WAL; from here on the log only carries the
		// delta since the latest checkpoint.
		if err := pers.checkpoint(ctx); err != nil {
			log.Fatalf("initial checkpoint: %v", err)
		}
		go pers.loop(ctx, *interval)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			if err := pers.checkpoint(ctx); err != nil {
				log.Printf("shutdown checkpoint: %v", err)
				os.Exit(1)
			}
			fmt.Println("checkpointed; exiting")
			os.Exit(0)
		}()
		api.SetIngestHook(pers.logIngest)
		api.AttachCatalog(pers.svc)
		if recovered {
			api.AttachRecovery(recInfo)
		}
		fmt.Printf("durable in %s (checkpoint interval %v)\n", *dataDir, *interval)
	}
	var handler http.Handler = api
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
	fmt.Printf("serving LakeHarbor API on %s\n", *addr)
	log.Fatal(http.ListenAndServe(*addr, handler))
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

// managerFor builds a lifecycle manager with the demo dataset's structure
// specs registered (not built) — the registrations recovery matches
// checkpointed entries against. Returns nil for kinds without specs.
func managerFor(ctx context.Context, cluster *dfs.Cluster, kind string, mopts indexer.ManagerOptions) *indexer.Manager {
	switch kind {
	case "tpch":
		m := indexer.NewManager(ctx, cluster, mopts)
		for _, spec := range tpch.StructureSpecs() {
			if err := m.Register(spec); err != nil {
				log.Fatal(err)
			}
		}
		return m
	case "claims":
		m := indexer.NewManager(ctx, cluster, mopts)
		if err := m.Register(claims.DiseaseIndexSpec()); err != nil {
			log.Fatal(err)
		}
		return m
	default:
		return nil
	}
}

// persistence ties the durable pieces together: one mutex brackets
// {snapshot atomically, truncate WAL} against concurrent ingest logging, so
// a record is always covered by exactly one of checkpoint or log.
type persistence struct {
	dir     string
	cluster *dfs.Cluster
	wal     *store.WAL
	mgr     *indexer.Manager
	scripts *script.Registry
	svc     *catalog.Service
	trigger chan struct{}

	mu sync.Mutex
}

func (p *persistence) snapPath() string { return filepath.Join(p.dir, "snap.lake") }
func (p *persistence) walPath() string  { return filepath.Join(p.dir, "wal.log") }

// logIngest is the write-ahead ingest hook: the record is framed, flushed,
// and fsynced before httpapi applies it to the cluster.
func (p *persistence) logIngest(file string, partKey lake.Key, rec lake.Record) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.wal.Append(file, partKey, rec); err != nil {
		return err
	}
	return p.wal.Sync()
}

// checkpoint writes an atomic v3 snapshot (files + catalog version +
// structure registry + scripts and their bindings) and truncates the WAL
// under the same lock.
func (p *persistence) checkpoint(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	meta := &store.SnapshotMeta{CatalogVersion: p.cluster.CatalogVersion()}
	if p.mgr != nil {
		meta.Structures = p.mgr.PersistEntries()
	}
	if p.scripts != nil {
		meta.Scripts = p.scripts.PersistScripts()
		meta.ScriptSpecs = p.scripts.Bindings()
	}
	if err := store.CheckpointToPath(ctx, p.cluster, meta, p.snapPath()); err != nil {
		return err
	}
	return p.wal.Truncate()
}

// requestCheckpoint schedules an asynchronous checkpoint (coalescing with
// one already pending). Build finalization calls it so freshly built
// structures reach the snapshot promptly.
func (p *persistence) requestCheckpoint() {
	select {
	case p.trigger <- struct{}{}:
	default:
	}
}

// loop runs periodic and requested checkpoints.
func (p *persistence) loop(ctx context.Context, every time.Duration) {
	var tick <-chan time.Time
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
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
		if err := p.checkpoint(ctx); err != nil {
			log.Printf("checkpoint: %v", err)
		}
	}
}
