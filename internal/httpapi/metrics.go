package httpapi

// This file is lakeserve's GET /debug/metrics: the families the server
// renders itself — job execution from the trace registry, storage access,
// structure lifecycle, catalog and recovery, scripts — plus every attached
// collector (scheduler, transport stats, federation), all through one
// obs.Writer.

import (
	"net/http"

	"lakeharbor/internal/obs"
	"lakeharbor/internal/script"
	"lakeharbor/internal/trace"
)

// Collector is a component that renders its own families into a scrape:
// sched.Scheduler, nodenet.Stats and fed.Federator.
type Collector interface{ Collect(*obs.Writer) }

// AttachCollector adds a component's families to /debug/metrics — e.g. the
// networked data plane's transport stats when the cluster runs over
// nodenet, or the federated node view. Call before serving.
func (s *Server) AttachCollector(c Collector) { s.collectors = append(s.collectors, c) }

var (
	jobs          = obs.NewCounter("lakeharbor_jobs_total", "Jobs executed.")
	jobsFailed    = obs.NewCounter("lakeharbor_jobs_failed_total", "Jobs that finished with an error.")
	tasks         = obs.NewCounter("lakeharbor_tasks_total", "Executor pool tasks run.")
	emits         = obs.NewCounter("lakeharbor_emits_total", "Stage outputs produced (records and pointers).")
	retries       = obs.NewCounter("lakeharbor_retries_total", "Dereferencer retries after transient failures.")
	taskErrors    = obs.NewCounter("lakeharbor_task_errors_total", "Failed stage invocations.")
	slowTasks     = obs.NewCounter("lakeharbor_slow_tasks_total", "Tasks exceeding the slow-task threshold.")
	batches       = obs.NewCounter("lakeharbor_batches_total", "Dereference tasks dispatched (a batch may carry one pointer).")
	batchedPtrs   = obs.NewCounter("lakeharbor_batched_pointers_total", "Pointers carried by dereference tasks; divide by batches for mean batch size.")
	batchSplits   = obs.NewCounter("lakeharbor_batch_splits_total", "Failed batches split into per-pointer retries.")
	localIO       = obs.NewCounter("lakeharbor_local_io_total", "Storage accesses served by the issuing node.")
	remoteIO      = obs.NewCounter("lakeharbor_remote_io_total", "Cross-node storage fetches.")
	eventsDropped = obs.NewCounter("lakeharbor_timeline_events_dropped_total", "Timeline events overwritten by full event rings.")
	busySeconds   = obs.NewCounter("lakeharbor_busy_seconds_total", "Summed task execution time.")
	jobSeconds    = obs.NewCounter("lakeharbor_job_seconds_total", "Summed job wall time.")

	taskSeconds     = obs.NewSummary("lakeharbor_task_seconds", "Task service time (TaskBegin to TaskEnd).", 1e-9, traceQuantiles)
	queueWait       = obs.NewSummary("lakeharbor_queue_wait_seconds", "Enqueue-to-start queue wait.", 1e-9, traceQuantiles)
	ioLocalSeconds  = obs.NewSummary("lakeharbor_io_local_seconds", "Observed local storage round-trip time.", 1e-9, traceQuantiles)
	ioRemoteSeconds = obs.NewSummary("lakeharbor_io_remote_seconds", "Observed cross-node storage round-trip time.", 1e-9, traceQuantiles)
	batchSize       = obs.NewSummary("lakeharbor_batch_size", "Pointers per dereference task.", 1, traceQuantiles)

	storageLookups        = obs.NewCounter("lakeharbor_storage_lookups_total", "Random-access gate admissions (a batch is one).")
	storageBatchLookups   = obs.NewCounter("lakeharbor_storage_batch_lookups_total", "Admissions that were batched lookups.")
	storageBatchKeys      = obs.NewCounter("lakeharbor_storage_batch_keys_total", "Keys served through batched lookups.")
	storageRecordsRead    = obs.NewCounter("lakeharbor_storage_records_read_total", "Records returned by lookups.")
	storageRecordsScanned = obs.NewCounter("lakeharbor_storage_records_scanned_total", "Records visited by scans.")
	storageRemoteFetches  = obs.NewCounter("lakeharbor_storage_remote_fetches_total", "Cross-node accesses.")
	storageBytesRead      = obs.NewCounter("lakeharbor_storage_bytes_read_total", "Payload bytes delivered.")
	storageAppends        = obs.NewCounter("lakeharbor_storage_appends_total", "Records appended.")

	structureBuilds        = obs.NewCounter("lakeharbor_structure_builds_started_total", "Structure build attempts launched.")
	structureDeduped       = obs.NewCounter("lakeharbor_structure_builds_deduped_total", "Ensure callers that joined an in-flight build (singleflight).")
	structureRebuilds      = obs.NewCounter("lakeharbor_structure_rebuilds_total", "Builds of previously evicted structures.")
	structureEvictions     = obs.NewCounter("lakeharbor_structure_evictions_total", "Structures dropped to reclaim budget or by request.")
	structureScanFallbacks = obs.NewCounter("lakeharbor_structure_scan_fallbacks_total", "Queries routed to the scan path because a structure was not ready.")
	structureResident      = obs.NewGauge("lakeharbor_structure_resident_bytes", "Modeled bytes of resident ready structures.")

	catalogVersion            = obs.NewGauge("lakeharbor_catalog_version", "Monotonic catalog version.")
	recoveryRecovered         = obs.NewGauge("lakeharbor_recovery_recovered", "1 when this process booted from a checkpoint.")
	recoverySnapshotFiles     = obs.NewGauge("lakeharbor_recovery_snapshot_files", "Files restored from the snapshot at boot.")
	recoveryWALRecords        = obs.NewGauge("lakeharbor_recovery_wal_records", "Records re-applied from the WAL at boot.")
	recoveryStructuresReady   = obs.NewGauge("lakeharbor_recovery_structures_ready", "Structures recovered directly into ready (no rebuild).")
	recoveryStructuresEvicted = obs.NewGauge("lakeharbor_recovery_structures_evicted", "Structures recovered into evicted.")
	recoveryCatalogVersion    = obs.NewGauge("lakeharbor_recovery_catalog_version", "Catalog version carried by the recovered checkpoint.")
	recoveryDuration          = obs.NewGauge("lakeharbor_recovery_duration_seconds", "Boot recovery wall time: restore, WAL replay and structure recovery.")

	scriptCompiles      = obs.NewCounter("lakeharbor_script_compiles_total", "Script sources compiled (POSTs and recoveries).")
	scriptCompileErrors = obs.NewCounter("lakeharbor_script_compile_errors_total", "Script sources rejected at compile time.")
	scriptInvocations   = obs.NewCounter("lakeharbor_script_invocations_total", "Scripted function invocations across all contracts.")
	scriptSteps         = obs.NewCounter("lakeharbor_script_steps_total", "Evaluation steps charged by scripted function invocations; steps / invocations is the mean cost of a scripted call, and GET /v1/scripts/{name} breaks both down per function.")
	scriptStepTrips     = obs.NewCounter("lakeharbor_script_step_budget_trips_total", "Invocations terminated by the step budget.")
	scriptAllocTrips    = obs.NewCounter("lakeharbor_script_alloc_budget_trips_total", "Invocations terminated by the allocation budget, which covers emitted pointers, keys and set fields as well as produced strings.")
	scriptRegistered    = obs.NewGauge("lakeharbor_script_registered", "Scripts currently registered.")
	scriptBindings      = obs.NewGauge("lakeharbor_script_bindings", "Structure bindings currently resolved from scripts.")
)

// traceQuantiles are the quantiles of the job-execution summaries.
var traceQuantiles = []float64{0.5, 0.9, 0.99}

// handleDebugMetrics serves Prometheus text metrics: the server's own
// families and every attached collector's, in one obs.Writer.
func (s *Server) handleDebugMetrics(w http.ResponseWriter, r *http.Request) {
	obs.Serve(w, "lakeserve", s.start, func(mw *obs.Writer) {
		collectJobs(mw, s.traces)
		s.collectStorage(mw)
		s.collectStructures(mw)
		s.collectPersistence(mw)
		s.collectScripts(mw)
		for _, c := range s.collectors {
			c.Collect(mw)
		}
	})
}

// collectJobs renders the registry's cumulative totals and the p50/p90/p99
// summaries of its merged task, queue-wait, I/O round-trip and batch-size
// distributions.
func collectJobs(w *obs.Writer, r *trace.Registry) {
	tot, lat := r.Totals(), r.Latencies()
	w.Sample(jobs, float64(tot.Jobs))
	w.Sample(jobsFailed, float64(tot.Failed))
	w.Sample(tasks, float64(tot.Tasks))
	w.Sample(emits, float64(tot.Emits))
	w.Sample(retries, float64(tot.Retries))
	w.Sample(taskErrors, float64(tot.Errors))
	w.Sample(slowTasks, float64(tot.SlowTasks))
	w.Sample(batches, float64(tot.Batches))
	w.Sample(batchedPtrs, float64(tot.BatchedPtrs))
	w.Sample(batchSplits, float64(tot.BatchSplits))
	w.Sample(localIO, float64(tot.LocalIO))
	w.Sample(remoteIO, float64(tot.RemoteIO))
	w.Sample(eventsDropped, float64(tot.EventsDropped))
	w.Sample(busySeconds, tot.Busy.Seconds())
	w.Sample(jobSeconds, tot.Wall.Seconds())
	w.Summary(taskSeconds, lat.Task)
	w.Summary(queueWait, lat.QueueWait)
	w.Summary(ioLocalSeconds, lat.IOLocal)
	w.Summary(ioRemoteSeconds, lat.IORemote)
	w.Summary(batchSize, lat.Batch)
}

func (s *Server) collectStorage(w *obs.Writer) {
	m := s.cluster.TotalMetrics()
	w.Sample(storageLookups, float64(m.Lookups))
	w.Sample(storageBatchLookups, float64(m.BatchLookups))
	w.Sample(storageBatchKeys, float64(m.BatchKeys))
	w.Sample(storageRecordsRead, float64(m.RecordsRead))
	w.Sample(storageRecordsScanned, float64(m.RecordsScanned))
	w.Sample(storageRemoteFetches, float64(m.RemoteFetches))
	w.Sample(storageBytesRead, float64(m.BytesRead))
	w.Sample(storageAppends, float64(m.Appends))
}

// collectStructures renders the lifecycle counters when a manager is
// attached.
func (s *Server) collectStructures(w *obs.Writer) {
	if s.structures == nil {
		return
	}
	c := s.structures.Counters()
	w.Sample(structureBuilds, float64(c.BuildsStarted))
	w.Sample(structureDeduped, float64(c.BuildsDeduped))
	w.Sample(structureRebuilds, float64(c.Rebuilds))
	w.Sample(structureEvictions, float64(c.Evictions))
	w.Sample(structureScanFallbacks, float64(c.ScanFallbacks))
	w.Sample(structureResident, float64(s.structures.ResidentBytes()))
}

// collectPersistence renders the catalog version and, after a durable boot,
// the recovery gauges.
func (s *Server) collectPersistence(w *obs.Writer) {
	if s.catalog != nil {
		w.Sample(catalogVersion, float64(s.catalog.Version()))
	}
	rec := s.recovery
	if rec == nil {
		return
	}
	w.Sample(recoveryRecovered, 1)
	w.Sample(recoverySnapshotFiles, float64(rec.SnapshotFiles))
	w.Sample(recoveryWALRecords, float64(rec.WALRecords))
	w.Sample(recoveryStructuresReady, float64(rec.Structures.Recovered))
	w.Sample(recoveryStructuresEvicted, float64(rec.Structures.Evicted))
	w.Sample(recoveryCatalogVersion, float64(rec.CatalogVersion))
	w.Sample(recoveryDuration, rec.Duration.Seconds())
}

// collectScripts renders the script counters when a registry is attached.
func (s *Server) collectScripts(w *obs.Writer) {
	if s.scripts == nil {
		return
	}
	c := script.Counters()
	w.Sample(scriptCompiles, float64(c.Compiles))
	w.Sample(scriptCompileErrors, float64(c.CompileErrors))
	w.Sample(scriptInvocations, float64(c.Invocations))
	w.Sample(scriptSteps, float64(c.Steps))
	w.Sample(scriptStepTrips, float64(c.StepTrips))
	w.Sample(scriptAllocTrips, float64(c.AllocTrips))
	w.Sample(scriptRegistered, float64(s.scripts.Len()))
	w.Sample(scriptBindings, float64(len(s.scripts.Bindings())))
}
