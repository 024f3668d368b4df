package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/metrics"
	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/script"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/tpch"
	"lakeharbor/internal/trace"
)

// The four q5_* workloads run the same seeded stream of TPC-H Q5' jobs on
// the same data and differ on exactly one axis each, so a layer's cost
// falls out by subtraction from q5_cpu:
//
//	q5_hdd     sim.HDDProfile() instead of the zero cost model
//	q5_net     loopback nodenet servers instead of the in-process sim
//	q5_script  scripted access methods instead of compiled ones
//
// The stream cycles through every (region, date window) pair — five
// regions × 1/selectivity windows tiling the o_orderdate domain — in an
// order shuffled by the seed. One fixed (region, window) would make a
// job's size swing by several percent from seed to seed (how many of the
// generated customers land in that region); the full cycle touches every
// order exactly once per pass, so per-job means depend on the scale factor
// alone.

type q5kind int

const (
	q5HDD q5kind = iota
	q5CPU
	q5Net
	q5Script
)

// selStep is the step in which a stream's date-range selectivity is raised
// from sizes.Sel until enough of its jobs return rows.
const selStep = 0.05

// q5query is one job of the stream.
type q5query struct {
	region string
	r, win int // region key and date-window index of the job
	lo, hi int
	want   int64     // oracle row count
	job    *core.Job // what the workload runs (scripted on q5_script)
	traced *core.Job // job with span-recording stage functions
	twin   *core.Job // q5_script: the compiled job
	emits  []int64   // q5_script: the compiled twin's StageEmits
}

type q5 struct {
	kind q5kind
	sz   sizes
	ds   *tpch.Dataset
	sel  float64
	plan []q5query // region, lo, hi, want — the seeded stream

	cluster *dfs.Cluster
	net     *netPlane
	queries []q5query
	opts    core.Options
	cur     cursor
	acc     *engineAcc

	buildS   float64 // structure build time of the last set-up
	indexed  int     // base records those builds scanned
	prog     *script.Program
	compileS float64
}

func (w *q5) freshPerRep() bool { return false }

func (w *q5) describe() string {
	return fmt.Sprintf("TPC-H micro SF %g on %d nodes, date selectivity %.2f, %s", w.sz.SF, w.sz.Nodes, w.sel, describeStream(w.plan))
}

// describeStream states a job stream's length and how many of its jobs
// return no rows.
func describeStream(plan []q5query) string {
	empty := 0
	for _, q := range plan {
		if q.want == 0 {
			empty++
		}
	}
	return fmt.Sprintf("%d jobs in the stream, %d of them without rows", len(plan), empty)
}

func (w *q5) variants() []variant {
	switch w.kind {
	case q5CPU:
		return []variant{noEvents}
	case q5Script:
		return []variant{twin}
	}
	return nil
}

func (w *q5) prepare(seed int64, sz sizes) error {
	w.sz = sz
	w.ds = tpch.Generate(tpch.Config{SF: sz.SF, Seed: seed})
	plan, sel, err := q5Plan(w.ds, seed, sz.Sel)
	if err != nil {
		return err
	}
	w.plan, w.sel = plan, sel
	w.opts = core.Options{}
	if w.kind == q5Net {
		// The oracle's net arm: a small retry budget absorbs connection-level
		// transients; a healthy run uses none (core.retries_per_job).
		w.opts.MaxRetries = 2
		w.opts.RetryBackoff = 50 * time.Microsecond
	}
	return nil
}

// q5Plan builds the seeded job stream over ds: every region × every date
// window at the smallest selectivity (from sel0, in steps of selStep) at
// which at least nine jobs in ten return rows, with oracle answers,
// shuffled by seed. A job without rows still does all of its work but the
// last filter, and is held to its oracle like any other; the threshold
// keeps the stream from measuring mostly empty answers at tiny scale
// factors without letting one empty window — one seed in twenty has one at
// SF 0.5, where a region drew few suppliers — double every job's size.
func q5Plan(ds *tpch.Dataset, seed int64, sel0 float64) ([]q5query, float64, error) {
	for sel := sel0; sel <= 1; sel += selStep {
		windows := int(1/sel + 1e-9)
		counts := q5Counts(ds, windows)
		var plan []q5query
		empty := 0
		for r, reg := range ds.Regions {
			for i := 0; i < windows; i++ {
				q := q5query{region: reg.Name, r: r, win: i, lo: windowLo(i, windows), hi: windowLo(i+1, windows), want: counts[r][i]}
				if q.want == 0 {
					empty++
				}
				plan = append(plan, q)
			}
		}
		if empty*10 > len(plan) {
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
		// The one-pass oracle above is the harness's; hold it to the
		// dataset's own oracle on a few jobs of the stream.
		for _, q := range plan[:3] {
			if got := ds.OracleQ5(q.region, q.lo, q.hi); got != q.want {
				return nil, 0, fmt.Errorf("q5 oracle mismatch on %s [%d,%d): one-pass %d, Dataset.OracleQ5 %d", q.region, q.lo, q.hi, q.want, got)
			}
		}
		return plan, sel, nil
	}
	return nil, 0, fmt.Errorf("q5: a region returns no rows even at selectivity 1 (SF %g too small)", ds.Config.SF)
}

// windowLo is the first day of date window i of n.
func windowLo(i, n int) int { return i * tpch.DateDays / n }

// q5Counts computes the Q5' cardinality of every (region, date window) in
// one pass over the dataset: counts[regionKey][window].
func q5Counts(ds *tpch.Dataset, windows int) [][]int64 {
	regionOf := make(map[int64]int64, len(ds.Nations))
	for _, n := range ds.Nations {
		regionOf[n.NationKey] = n.RegionKey
	}
	custNation := make(map[int64]int64, len(ds.Customers))
	for _, c := range ds.Customers {
		custNation[c.CustKey] = c.NationKey
	}
	suppNation := make(map[int64]int64, len(ds.Suppliers))
	for _, s := range ds.Suppliers {
		suppNation[s.SuppKey] = s.NationKey
	}
	type ord struct {
		nation int64
		window int
	}
	orders := make(map[int64]ord, len(ds.Orders))
	for _, o := range ds.Orders {
		i := o.OrderDate * windows / tpch.DateDays
		for o.OrderDate < windowLo(i, windows) {
			i--
		}
		for o.OrderDate >= windowLo(i+1, windows) {
			i++
		}
		orders[o.OrderKey] = ord{custNation[o.CustKey], i}
	}
	counts := make([][]int64, len(ds.Regions))
	for r := range counts {
		counts[r] = make([]int64, windows)
	}
	for _, l := range ds.Lineitems {
		o, ok := orders[l.OrderKey]
		if ok && suppNation[l.SuppKey] == o.nation {
			counts[regionOf[o.nation]][o.window]++
		}
	}
	return counts
}

func (w *q5) setup(ctx context.Context) error {
	cost := sim.CostModel{}
	if w.kind == q5HDD {
		cost = sim.HDDProfile()
	}
	cluster := dfs.NewCluster(dfs.Config{Nodes: w.sz.Nodes, Cost: cost})
	if err := tpch.Load(ctx, cluster, w.ds, 0); err != nil {
		return err
	}
	t0 := time.Now()
	if err := w.buildStructures(ctx, cluster); err != nil {
		return err
	}
	w.buildS = time.Since(t0).Seconds()
	w.indexed = 0
	for _, spec := range tpch.StructureSpecs() {
		n, err := cluster.Len(spec.Base)
		if err != nil {
			return err
		}
		w.indexed += n
	}
	if w.kind == q5Net {
		plane, err := startNetPlane(ctx, cluster)
		if err != nil {
			return err
		}
		w.net, cluster = plane, plane.cluster
	}
	w.cluster = cluster
	w.queries = make([]q5query, len(w.plan))
	for i, q := range w.plan {
		job, err := tpch.Q5Job(ctx, cluster, q.region, q.lo, q.hi)
		if err != nil {
			return err
		}
		q.job = job
		if w.kind == q5Script {
			q.twin = job
			if q.job, err = w.scriptedJob(job); err != nil {
				return err
			}
		}
		q.traced = wrapJob(q.job)
		w.queries[i] = q
	}
	return nil
}

// buildStructures builds the §III-E structures. On q5_script the Q5'
// driver index is built through scripted extractors bound by a
// script.Registry, the way a user registers an access method post hoc.
func (w *q5) buildStructures(ctx context.Context, cluster *dfs.Cluster) error {
	if w.kind != q5Script {
		return tpch.BuildStructures(ctx, cluster)
	}
	t0 := time.Now()
	reg := script.NewRegistry(script.Limits{})
	h, err := reg.Put("q5", q5ScriptSource)
	if err != nil {
		return err
	}
	w.compileS = time.Since(t0).Seconds()
	w.prog = h.Program()
	for _, spec := range tpch.StructureSpecs() {
		if spec.Name == tpch.IdxOrdersDate {
			spec, err = reg.Bind(script.SpecBinding{
				Structure: tpch.IdxOrdersDate, Base: tpch.FileOrders, Kind: "local",
				Script: "q5", PartKeyFn: "partkey", KeysFn: "keys",
			})
			if err != nil {
				return err
			}
		}
		if _, err := indexer.Build(ctx, cluster, spec); err != nil {
			return err
		}
	}
	return nil
}

// q5ScriptSource mirrors, byte for byte in what they emit, the functions of
// tpch.Q5Job and tpch.StructureSpecs that the script host API can express:
// the EntryRef over the orders-date index, the o_custkey FieldRef with its
// carried record, and the date index's partition-key and key extractors.
// The remaining Q5' functions read composite (segment-list) records or emit
// routed range pointers, which the host API has no builtins for.
const q5ScriptSource = `fn ref_entry(key, data) {
	emit("` + tpch.FileOrders + `", indexpart(data), indexkey(data))
}
fn ref_cust(key, data) {
	let rest = substr(data, find(data, "|") + 1, len(data))
	let k = keyint(int(substr(rest, 0, find(rest, "|"))))
	carry()
	emit("` + tpch.FileCustomer + `", k, k)
}
fn partkey(key, data) {
	return keyint(int(substr(data, 0, find(data, "|"))))
}
fn keys(key, data) {
	let rest = substr(data, find(data, "|") + 1, len(data))
	rest = substr(rest, find(rest, "|") + 1, len(rest))
	emit(keyint(int(substr(rest, 0, find(rest, "|")))))
}
`

// scriptedJob returns job with the two expressible referencers scripted.
func (w *q5) scriptedJob(job *core.Job) (*core.Job, error) {
	out := &core.Job{Name: job.Name + "-script", Seeds: job.Seeds, Stages: append([]core.Stage(nil), job.Stages...)}
	for i, st := range out.Stages {
		fn := ""
		switch r := st.Ref.(type) {
		case core.EntryRef:
			if r.Target == tpch.FileOrders {
				fn = "ref_entry"
			}
		case core.FieldRef:
			if r.Field == "o_custkey" {
				fn = "ref_cust"
			}
		}
		if fn == "" {
			continue
		}
		ref, err := w.prog.NewReferencer(st.Ref.Name(), fn, script.Limits{})
		if err != nil {
			return nil, err
		}
		out.Stages[i].Ref = ref
	}
	return out, out.Validate()
}

func (w *q5) teardown() {
	if w.net != nil {
		w.net.close()
		w.net = nil
	}
	w.cluster, w.queries = nil, nil
}

func (w *q5) rep(ctx context.Context, d time.Duration, v variant, tr *tracer) repStats {
	opts := w.opts
	if v == noEvents {
		opts.EventCap = -1
	}
	if w.kind == q5Script && w.queries[0].emits == nil {
		// First use: the compiled twin's per-stage emits are half of the
		// scripted jobs' answer check. Twenty-odd milliseconds, once.
		for i := range w.queries {
			res, err := core.ExecuteSMPE(ctx, w.queries[i].twin, w.cluster, w.cluster, opts)
			if err != nil {
				return repStats{attempted: 1, failed: 1, failures: []string{"compiled twin: " + err.Error()}}
			}
			w.queries[i].emits = res.StageEmits
		}
	}
	var before metrics.Snapshot
	var net0 netCounters
	calls0 := script.Counters().Invocations
	if tr != nil {
		w.acc = &engineAcc{}
		before = w.cluster.TotalMetrics()
		if w.net != nil {
			net0 = w.net.traceOn()
		}
	}
	s := closedLoop(d, 1, len(w.queries), func() int64 { return recordAccesses(w.cluster) }, func(int) error {
		q := &w.queries[w.cur.next(len(w.queries))]
		job, jctx := q.job, ctx
		if v == twin {
			job = q.twin
		}
		if tr != nil {
			var done func()
			jctx, done = tr.beginJob(ctx)
			defer done()
			job = q.traced
		}
		res, err := core.ExecuteSMPE(jctx, job, w.cluster, w.cluster, opts)
		if err != nil {
			return fmt.Errorf("%s [%d,%d): %w", q.region, q.lo, q.hi, err)
		}
		if res.Count != q.want {
			return fmt.Errorf("%s [%d,%d): %d rows, oracle %d", q.region, q.lo, q.hi, res.Count, q.want)
		}
		for i := range q.emits {
			if res.StageEmits[i] != q.emits[i] {
				return fmt.Errorf("%s [%d,%d): stage %d emits %d, compiled twin %d", q.region, q.lo, q.hi, i, res.StageEmits[i], q.emits[i])
			}
		}
		if tr != nil {
			w.acc.add(res.Trace)
		}
		return nil
	})
	if tr != nil {
		s.extra = map[string]float64{}
		if w.kind == q5Script {
			s.extra["script.calls_per_job"] = float64(script.Counters().Invocations-calls0) / float64(s.jobs())
		}
		dfsInto(s.extra, w.cluster.TotalMetrics().Sub(before), float64(s.jobs()))
		if w.net != nil {
			w.net.traceOff(net0, tr, s.extra, float64(s.jobs()))
		}
	}
	return s
}

func (w *q5) layers(ctx context.Context, r *runData) map[string]float64 {
	m := tracedLayers(r, w.acc)
	if w.buildS > 0 {
		m["indexer.build_krecs_per_s"] = float64(w.indexed) / 1e3 / w.buildS
	}
	switch w.kind {
	case q5HDD:
		w.baselineProbe(ctx, m, r)
	case q5CPU:
		m["trace.timeline_cost_pct"] = overheadPct(r.byVar[noEvents], r.byVar[plain])
		storageProbes(ctx, m, w.ds, w.cluster)
	case q5Net:
		w.net.probes(ctx, m, w.ds)
	case q5Script:
		if c := p50Of(r.byVar[twin]); c > 0 {
			m["script.slowdown_ratio"] = p50Of(r.byVar[plain]) / c
		}
		m["script.compile_ms"] = w.compileS * 1e3
		scriptProbes(m, w)
	}
	return m
}

// baselineProbe runs the scan + hash-join engine on the stream's first
// jobs: Fig. 7's other arm, on the same cost model and data.
func (w *q5) baselineProbe(ctx context.Context, m map[string]float64, r *runData) {
	eng := baseline.New(w.cluster, 0)
	var ms []float64
	for _, q := range w.queries[:3] {
		t0 := time.Now()
		rows, err := tpch.RunQ5Baseline(ctx, eng, w.cluster, q.region, q.lo, q.hi)
		if err != nil || rows != q.want {
			r.notes = append(r.notes, fmt.Sprintf("baseline %s [%d,%d): rows %d want %d err %v", q.region, q.lo, q.hi, rows, q.want, err))
			return
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	m["baseline.scan_ms"] = median(ms)
	if p := p50Of(r.byVar[plain]); p > 0 {
		m["fig7.speedup_vs_scan"] = median(ms) / p
	}
}

// netPlane is q5_net's data plane: one nodenet server per node over a
// one-node zero-cost backing cluster, one pooled client per server, and the
// transport-backed front-end cluster the jobs run on.
type netPlane struct {
	servers  []*nodenet.Server
	clients  []*nodenet.Client
	stats    *nodenet.Stats
	cluster  *dfs.Cluster
	observed []*nodenet.ServerObs
}

// netCounters is a reading of the client-side transport counters.
type netCounters struct{ rpcs, fires, wins int64 }

func (p *netPlane) counters() netCounters {
	return netCounters{p.stats.RPCs(), p.stats.HedgeFires(), p.stats.HedgeWins()}
}

// startNetPlane serves src's contents from loopback servers: partition p of
// every file lands on partition p of the front end, hence on its owner.
func startNetPlane(ctx context.Context, src *dfs.Cluster) (*netPlane, error) {
	p := &netPlane{stats: nodenet.NewStats()}
	var transports []dfs.NodeTransport
	for i := 0; i < src.NumNodes(); i++ {
		backing := dfs.NewCluster(dfs.Config{Nodes: 1})
		srv := nodenet.NewServer(dfs.Local(backing), func(string, ...any) {})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		p.servers = append(p.servers, srv)
		c := nodenet.Dial(addr.String(), nodenet.Options{}, p.stats)
		p.clients = append(p.clients, c)
		transports = append(transports, c)
	}
	var err error
	if p.cluster, err = dfs.NewClusterWithTransports(dfs.Config{}, transports); err != nil {
		p.close()
		return nil, err
	}
	for _, name := range src.FileNames() {
		f, err := src.File(name)
		if err != nil {
			p.close()
			return nil, err
		}
		kind := dfs.Heap
		if _, err := src.BtreeFile(name); err == nil {
			kind = dfs.Btree
		}
		nf, err := p.cluster.CreateFile(name, kind, f.NumPartitions(), f.Partitioner())
		if err != nil {
			p.close()
			return nil, err
		}
		for part := 0; part < f.NumPartitions(); part++ {
			var recs []lake.Record
			if err := f.Scan(ctx, part, func(r lake.Record) error {
				recs = append(recs, r)
				return nil
			}); err != nil {
				p.close()
				return nil, err
			}
			if len(recs) == 0 {
				continue
			}
			if err := nf.Append(ctx, part, recs...); err != nil {
				p.close()
				return nil, err
			}
		}
	}
	return p, nil
}

// closeClients drains the client pools; idempotent.
func (p *netPlane) closeClients() {
	for _, c := range p.clients {
		_ = c.Close() // Close only reports nil
	}
}

func (p *netPlane) close() {
	p.closeClients()
	for _, s := range p.servers {
		_ = s.Close() // listener already closing is not actionable here
	}
}

// traceOn interposes the span-recording transport on every node and gives
// each server a fresh observer, so server-side latencies cover the traced
// repetition only. Called between repetitions, with nothing in flight.
func (p *netPlane) traceOn() netCounters {
	p.observed = p.observed[:0]
	for i, c := range p.clients {
		_ = p.cluster.SetNodeTransport(i, tracedTransport{c}) // i is in range by construction
		obs := nodenet.NewServerObs()
		p.servers[i].Observe(obs)
		p.observed = append(p.observed, obs)
	}
	return p.counters()
}

// traceOff restores the bare transports and writes the nodenet metrics of
// the traced repetition.
func (p *netPlane) traceOff(c0 netCounters, tr *tracer, m map[string]float64, jobs float64) {
	for i, c := range p.clients {
		_ = p.cluster.SetNodeTransport(i, c)
		p.servers[i].Observe(nil)
	}
	c1 := p.counters()
	rpcs := float64(c1.rpcs - c0.rpcs)
	if jobs > 0 {
		m["nodenet.rpcs_per_job"] = rpcs / jobs
	}
	if rpcs > 0 {
		m["nodenet.hedge_fire_ratio"] = float64(c1.fires-c0.fires) / rpcs
	}
	if fires := float64(c1.fires - c0.fires); fires > 0 {
		m["nodenet.hedge_win_ratio"] = float64(c1.wins-c0.wins) / fires
	}
	rtt := sorted(tr.samples[spanRPC])
	m["nodenet.client_rtt_us_p50"] = percentile(rtt, 0.5)
	m["nodenet.client_rtt_us_p90"], _ = tailPercentile(rtt, 0.9)
	var served trace.HistSnapshot
	for _, obs := range p.observed {
		for op, st := range obs.State(nil).Ops {
			if op == "lookup_batch" || op == "lookup_range" {
				served = served.Merge(st.Latency)
			}
		}
	}
	m["nodenet.server_us_p50"] = float64(served.Quantile(0.5)) / 1e3
	m["nodenet.wire_us_p50"] = m["nodenet.client_rtt_us_p50"] - m["nodenet.server_us_p50"]
}
