package main

import (
	"sync"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/metrics"
	"lakeharbor/internal/trace"
)

// engineAcc sums, over the jobs of the traced repetition, the counters the
// engine already returns with every result (trace.Snapshot) — the
// program's own view of the job, read beside the harness's spans.
type engineAcc struct {
	mu      sync.Mutex
	jobs    int64
	tasks   int64
	emits   int64
	batches int64
	ptrs    int64
	retries int64
	events  int64
	dropped int64
	lat     trace.Latencies
}

func (a *engineAcc) add(s *trace.Snapshot) {
	if s == nil {
		return
	}
	var emits int64
	for _, st := range s.Stages {
		emits += st.Emits
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.jobs++
	a.tasks += s.TotalTasks()
	a.emits += emits
	a.batches += s.TotalBatches()
	a.ptrs += s.TotalBatchedPtrs()
	a.retries += s.TotalRetries()
	a.events += int64(len(s.Events))
	a.dropped += s.EventsDropped
	a.lat = a.lat.Merge(s.Lat)
}

// into writes the core/dfs/trace per-layer metrics the engine's counters
// give. jobs is the number of traced jobs (a fig9 job is three engine jobs,
// so it is passed in rather than taken from a.jobs).
func (a *engineAcc) into(m map[string]float64, jobs float64) {
	if jobs == 0 {
		return
	}
	m["core.tasks_per_job"] = float64(a.tasks) / jobs
	m["core.emits_per_job"] = float64(a.emits) / jobs
	if a.batches > 0 {
		m["core.batch_mean_ptrs"] = float64(a.ptrs) / float64(a.batches)
	}
	m["core.queue_wait_us_p50"] = float64(a.lat.QueueWait.Quantile(0.5)) / 1e3
	m["core.task_us_mean"] = a.lat.Task.Mean() / 1e3
	m["core.retries_per_job"] = float64(a.retries) / jobs
	m["dfs.io_busy_ms_per_job"] = float64(a.lat.IOLocal.Sum+a.lat.IORemote.Sum) / 1e6 / jobs
	m["trace.events_per_job"] = float64(a.events) / jobs
	m["trace.events_dropped_per_job"] = float64(a.dropped) / jobs
}

// dfsInto writes the storage-counter metrics from a cluster counter delta.
func dfsInto(m map[string]float64, d metrics.Snapshot, jobs float64) {
	if jobs == 0 {
		return
	}
	m["dfs.gate_admissions_per_job"] = float64(d.Lookups) / jobs
	if d.BatchLookups > 0 {
		m["dfs.keys_per_batch_admission"] = float64(d.BatchKeys) / float64(d.BatchLookups)
	}
	m["dfs.remote_fetches_per_job"] = float64(d.RemoteFetches) / jobs
	m["dfs.bytes_read_per_job"] = float64(d.BytesRead) / jobs
}

// spansInto writes the metrics the harness's own spans give.
func spansInto(m map[string]float64, t *tracer) {
	m["core.ref_busy_ms_per_job"] = t.perJob(t.busyNs, spanRef) / 1e6
	m["core.deref_self_ms_per_job"] = t.perJob(t.selfNs, spanDeref) / 1e6
	m["core.dispatch_self_ms_per_job"] = t.perJob(t.selfNs, spanJob) / 1e6
	m["interp.filter_busy_ms_per_job"] = t.perJob(t.busyNs, spanFilter) / 1e6
	m["interp.filter_calls_per_job"] = t.perJob(t.count, spanFilter)
}

// tracedLayers starts a workload's per-layer metrics with what every traced
// run gives: the traced repetition's own measurements, the engine's
// counters, the spans, and what the tracing cost.
func tracedLayers(r *runData, acc *engineAcc) map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.traced.extra {
		m[k] = v
	}
	acc.into(m, float64(r.traced.jobs()))
	spansInto(m, r.tr)
	m["bench.span_overhead_pct"] = overheadPct(r.byVar[plain], []repStats{*r.traced})
	return m
}

// overheadPct is how much slower b's median job is than a's, in percent.
func overheadPct(a, b []repStats) float64 {
	pa, pb := p50Of(a), p50Of(b)
	if pa == 0 {
		return 0
	}
	return (pb - pa) / pa * 100
}

// p50Of is the median over repetitions of each repetition's median latency.
func p50Of(reps []repStats) float64 {
	var ps []float64
	for _, r := range reps {
		if len(r.latMs) > 0 {
			ps = append(ps, median(r.latMs))
		}
	}
	return median(ps)
}

// recordAccesses is Fig. 9's unit summed over a cluster's nodes.
func recordAccesses(c *dfs.Cluster) int64 { return c.TotalMetrics().RecordAccesses() }
