package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"lakeharbor/internal/core"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
)

// This file adds job execution and execution-trace observability to the
// HTTP API:
//
//	GET /v1/jobs/range              run a key-range job through the SMPE executor
//	GET /debug/jobs                 recent execution traces, newest first (JSON)
//	GET /debug/jobs/{id}            one execution trace by id
//	GET /debug/jobs/{id}/timeline   the job's event log as Chrome trace JSON
//	GET /debug/jobs/{id}/critpath   top-k critical-path segments (?k=, default 5)
//	GET /debug/metrics              Prometheus-style text metrics (jobs + storage)
//
// Every job executed through the server records its trace in the server's
// registry, so /debug/jobs shows the same per-stage spans, queue high-water
// marks, worker gauges, and local/remote I/O split that Result.Trace (and
// the bench commands' -trace flag) expose. The timeline endpoint's output
// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.

// maxJobLimit caps the records a range job returns over the wire.
const maxJobLimit = 10000

// JobResultJSON is the wire form of an executed job.
type JobResultJSON struct {
	// Count is the number of records the job's final stage emitted.
	Count int64 `json:"count"`
	// TraceID is the trace's id in /debug/jobs.
	TraceID int64 `json:"traceId"`
	// Records holds up to `limit` result records.
	Records []RecordJSON `json:"records"`
}

// handleJobRange runs a key-range dereference over a B-tree file as a real
// executor job (seed routing, per-node queues, worker pools), rather than
// the sequential partition loop of /v1/range. Parameters: file, lo, hi
// (typed key specs), limit (result cap, default 100), threads (pool size,
// default the paper's 1000).
func (s *Server) handleJobRange(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("file")
	if name == "" {
		writeError(w, http.StatusBadRequest, errors.New("httpapi: missing file parameter"))
		return
	}
	lo, err := ParseKeys(q["lo"])
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("lo: %w", err))
		return
	}
	hi, err := ParseKeys(q["hi"])
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("hi: %w", err))
		return
	}
	limit := 100
	if l := q.Get("limit"); l != "" {
		limit, err = strconv.Atoi(l)
		if err != nil || limit <= 0 || limit > maxJobLimit {
			writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad limit %q", l))
			return
		}
	}
	threads := 0 // Execute's default
	if t := q.Get("threads"); t != "" {
		threads, err = strconv.Atoi(t)
		if err != nil || threads < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad threads %q", t))
			return
		}
	}
	tenant, ok := s.jobOptions(w, r)
	if !ok {
		return
	}

	seeds, err := core.SeedRange(s.cluster, name, lo, hi)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if len(seeds) == 0 {
		// Degenerate range (lo > hi): nothing to run, nothing to return.
		writeJSON(w, http.StatusOK, JobResultJSON{Records: []RecordJSON{}})
		return
	}
	job, err := core.NewJob("range:"+name, seeds, core.RangeDeref{File: name})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Retain at most `limit` records while the job runs, instead of keeping
	// the whole result (KeepRecords) and truncating afterwards: a range
	// over a huge file must not hold every record in server memory when
	// the client asked for the first hundred.
	var (
		mu   sync.Mutex
		kept []RecordJSON
	)
	opts := core.Options{
		Threads: threads,
		Tenant:  tenant,
		Each: func(_ int, rec lake.Record) error {
			mu.Lock()
			if len(kept) < limit {
				kept = append(kept, toRecordJSON(rec))
			}
			mu.Unlock()
			return nil
		},
	}
	if s.sched != nil {
		// Only assign when attached: a typed nil in the interface would
		// flip the executor onto the scheduler path with no scheduler.
		opts.Scheduler = s.sched
	}
	res, err := core.Execute(r.Context(), job, s.cluster, s.cluster, opts)
	if err != nil {
		if writeAdmissionError(w, err) {
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.traces.Add(res.Trace)

	if kept == nil {
		kept = []RecordJSON{}
	}
	writeJSON(w, http.StatusOK, JobResultJSON{Count: res.Count, TraceID: res.Trace.ID, Records: kept})
}

func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	// The list view strips each snapshot's event log — a ring can hold
	// thousands of events per job, and the timeline endpoint serves them in
	// a far more useful form.
	full := s.traces.Recent()
	out := make([]*trace.Snapshot, len(full))
	for i, snap := range full {
		slim := *snap
		slim.Events = nil
		out[i] = &slim
	}
	writeJSON(w, http.StatusOK, out)
}

// debugJob resolves the {id} path value to a retained snapshot, writing the
// error response itself when it returns nil.
func (s *Server) debugJob(w http.ResponseWriter, r *http.Request) *trace.Snapshot {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad trace id %q", r.PathValue("id")))
		return nil
	}
	snap := s.traces.Get(id)
	if snap == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("httpapi: no trace %d", id))
		return nil
	}
	return snap
}

func (s *Server) handleDebugJob(w http.ResponseWriter, r *http.Request) {
	if snap := s.debugJob(w, r); snap != nil {
		writeJSON(w, http.StatusOK, snap)
	}
}

// handleDebugJobTimeline serves the job's event log as Chrome trace-event
// JSON for Perfetto / chrome://tracing.
func (s *Server) handleDebugJobTimeline(w http.ResponseWriter, r *http.Request) {
	snap := s.debugJob(w, r)
	if snap == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.WriteChromeTrace(w)
}

// handleDebugJobCritPath serves the job's top-k critical-path segments.
func (s *Server) handleDebugJobCritPath(w http.ResponseWriter, r *http.Request) {
	snap := s.debugJob(w, r)
	if snap == nil {
		return
	}
	k := 5
	if ks := r.URL.Query().Get("k"); ks != "" {
		var err error
		k, err = strconv.Atoi(ks)
		if err != nil || k <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad k %q", ks))
			return
		}
	}
	segs := trace.CriticalPath(snap.Events, k)
	if segs == nil {
		segs = []trace.CritSegment{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":           snap.Job,
		"traceId":       snap.ID,
		"events":        len(snap.Events),
		"eventsDropped": snap.EventsDropped,
		"segments":      segs,
	})
}

// JobTrace is the execution-trace snapshot type served by /debug/jobs.
type JobTrace = trace.Snapshot
