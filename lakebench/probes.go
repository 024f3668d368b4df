package main

import (
	"context"
	"time"

	"lakeharbor/internal/btree"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sched"
	"lakeharbor/internal/script"
	"lakeharbor/internal/tpch"
	"lakeharbor/internal/trace"
)

// Probes are single-threaded calls on a layer's public functions with
// inputs taken from the workload's data. Each returns the mean cost of one
// call over a fixed number of calls, best of probeRounds rounds: a probe
// asks what the code costs, so the round a neighbour disturbed least is the
// answer.
const probeRounds = 3

// perCall times n calls of fn and returns the best round's mean in ns.
func perCall(n int, fn func(i int)) float64 {
	best := 0.0
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if ns := float64(time.Since(t0)) / float64(n); r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// storageProbes prices keycodec, btree and the zero-cost dfs read path on
// the workload's order and lineitem keys.
func storageProbes(ctx context.Context, m map[string]float64, ds *tpch.Dataset, cluster *dfs.Cluster) {
	orders := ds.Orders
	m["keycodec.probe_encode_ns"] = perCall(len(orders), func(i int) {
		sink += len(keycodec.Int64(orders[i].OrderKey))
	})

	keys := make([]string, len(orders))
	for i, o := range orders {
		keys[i] = tpch.OrderKey(o.OrderKey)
	}
	var tree *btree.Tree
	payload := []byte(orders[0].Raw())
	m["btree.probe_insert_ns"] = perCall(1, func(int) {
		tree = btree.New()
		for _, k := range keys {
			tree.Insert(k, payload)
		}
	}) / float64(len(keys))
	// Probe in a stride that is not the insertion order.
	m["btree.probe_get_ns"] = perCall(len(keys), func(i int) {
		sink += len(tree.Get(keys[(i*7919)%len(keys)]))
	})
	lines := btree.New()
	for _, l := range ds.Lineitems {
		lines.Insert(tpch.LineitemKey(l.OrderKey, l.LineNumber), payload)
	}
	seen := 0
	ns := perCall(len(orders), func(i int) {
		lo, hi := lake.PrefixRange(keys[(i*7919)%len(keys)])
		lines.Ascend(lo, hi, func(string, []byte) bool { seen++; return true })
	})
	if seen > 0 {
		m["btree.probe_range_ns_per_rec"] = ns * float64(len(orders)) * probeRounds / float64(seen)
	}

	f, err := cluster.File(tpch.FileOrders)
	if err != nil {
		return
	}
	part := func(k string) int { return f.Partitioner().Partition(k, f.NumPartitions()) }
	m["dfs.probe_lookup_ns"] = perCall(len(keys), func(i int) {
		k := keys[(i*7919)%len(keys)]
		recs, _ := f.Lookup(ctx, part(k), k) // a miss shows as a wrong answer in the loop, not here
		sink += len(recs)
	})
	if batches, took := batchLookups(ctx, f, keys); batches > 0 {
		m["dfs.probe_lookup_batch_ns_per_key"] = float64(took) / float64(batches*core.DefaultMaxBatch)
	}
}

// batchLookups looks keys up in full batches of core.DefaultMaxBatch per
// partition — the executor's unit of storage access — and returns how many
// batches that made and how long they took together.
func batchLookups(ctx context.Context, f lake.File, keys []string) (batches int, took time.Duration) {
	byPart := map[int][]string{}
	for _, k := range keys {
		p := f.Partitioner().Partition(k, f.NumPartitions())
		byPart[p] = append(byPart[p], k)
	}
	t0 := time.Now()
	for p, ks := range byPart {
		for ; len(ks) >= core.DefaultMaxBatch; ks = ks[core.DefaultMaxBatch:] {
			out, _ := lake.LookupBatch(ctx, f, p, ks[:core.DefaultMaxBatch]) // a miss shows in the loop's answers, not here
			sink += len(out)
			batches++
		}
	}
	return batches, time.Since(t0)
}

// probes prices one loopback round trip: a point lookup with and without
// trace context on the frame, and a 64-key batch.
func (p *netPlane) probes(ctx context.Context, m map[string]float64, ds *tpch.Dataset) {
	f, err := p.cluster.File(tpch.FileOrders)
	if err != nil {
		return
	}
	const n = 1500
	keys := make([]string, 0, n)
	for i := 0; i < n && i < len(ds.Orders); i++ {
		keys = append(keys, tpch.OrderKey(ds.Orders[i].OrderKey))
	}
	part := func(k string) int { return f.Partitioner().Partition(k, f.NumPartitions()) }
	// The two variants take turns, so neither has the warmer connections.
	stamped := trace.WithRPC(ctx, trace.RPCInfo{Job: "probe", Tenant: "bench", Stage: 2})
	for round := 0; round < probeRounds; round++ {
		for name, ctx := range map[string]context.Context{"nodenet.probe_rtt_us": ctx, "nodenet.probe_rtt_ctx_us": stamped} {
			t0 := time.Now()
			for _, k := range keys {
				recs, _ := f.Lookup(ctx, part(k), k)
				sink += len(recs)
			}
			if us := float64(time.Since(t0)) / float64(len(keys)) / 1e3; round == 0 || us < m[name] {
				m[name] = us
			}
		}
	}
	if batches, took := batchLookups(ctx, f, keys); batches > 0 {
		m["nodenet.probe_batch64_rtt_us"] = float64(took) / float64(batches) / 1e3
	}
	// The workload is over: drain the pools and count what is still open.
	p.closeClients()
	m["nodenet.open_conns_after_close"] = float64(p.stats.OpenConns())
}

// scriptProbes prices one scripted referencer call against the compiled
// function it mirrors, on the workload's order records, and counts the
// evaluation steps a call takes.
func scriptProbes(m map[string]float64, w *q5) {
	recs := make([]lake.Record, 0, 2000)
	for _, o := range w.ds.Orders {
		if len(recs) == cap(recs) {
			break
		}
		recs = append(recs, lake.Record{Key: tpch.OrderKey(o.OrderKey), Data: []byte(o.Raw())})
	}
	var scripted, compiled core.Referencer
	for _, st := range w.queries[0].job.Stages {
		if r, ok := st.Ref.(*script.Referencer); ok {
			scripted = r // the last one: the o_custkey FieldRef mirror
		}
	}
	for _, st := range w.queries[0].twin.Stages {
		if r, ok := st.Ref.(core.FieldRef); ok && r.Field == "o_custkey" {
			compiled = r
		}
	}
	if scripted == nil || compiled == nil {
		return
	}
	tc := &core.TaskCtx{Ctx: context.Background()}
	call := func(r core.Referencer) float64 {
		return perCall(len(recs), func(i int) {
			ptrs, _ := r.Ref(tc, recs[i])
			sink += len(ptrs)
		})
	}
	m["script.probe_eval_ns_per_call"] = call(scripted)
	m["script.probe_compiled_ns_per_call"] = call(compiled)

	// The evaluator does not export its step count, but its budget is a
	// public knob: the smallest budget a call passes under is the count.
	host := map[string]script.Builtin{
		"carry": func([]script.Value) (script.Value, error) { return script.Value{}, nil },
		"emit":  func([]script.Value) (script.Value, error) { return script.Value{}, nil },
	}
	var steps []float64
	for _, rec := range recs[:20] {
		lo, hi := int64(1), int64(script.DefaultSteps)
		for lo < hi {
			mid := (lo + hi) / 2
			_, err := w.prog.Call("ref_cust", script.Limits{Steps: mid}, host, script.Str(rec.Key), script.Str(string(rec.Data)))
			if err != nil {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		steps = append(steps, float64(lo))
	}
	m["script.steps_per_call"] = median(steps)
}

// schedProbe prices one Submit of an empty task on an otherwise idle
// scheduler, single submitter.
func schedProbe(m map[string]float64) {
	s, err := sched.New(sched.Options{Workers: 16, ShedDepth: -1}, sched.TenantConfig{Name: "probe", Weight: 1})
	if err != nil {
		return
	}
	defer s.Close()
	const n = 20000
	m["sched.probe_submit_ns"] = perCall(1, func(int) {
		j, err := s.StartJob("probe")
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			_, _ = j.Submit(func(int) {}) // only fails once the scheduler is closed
		}
		j.Finish()
	}) / n
}
