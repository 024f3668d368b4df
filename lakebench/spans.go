package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the harness interposes on.
const (
	spanJob    = "job"           // the harness's call into the engine (root)
	spanDeref  = "core.deref"    // a wrapped Dereferencer invocation
	spanRef    = "core.ref"      // a wrapped Referencer invocation
	spanFilter = "interp.filter" // a wrapped schema-on-read Filter
	spanRPC    = "nodenet.rpc"   // a wrapped NodeTransport read
	spanWait   = "sched.wait"    // scheduler submit → run start
	spanTask   = "sched.task"    // a task running on a scheduler worker
	spanIngest = "ingest.ack"    // one WAL-first ingested record
	spanAppend = "store.append"  // WAL.Append inside an ingest
	spanSync   = "store.sync"    // WAL.Sync inside an ingest
	spanApply  = "indexer.apply" // dfs.AppendRouted incl. maintenance
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span.
type span struct {
	Name   string
	Start  int64
	End    int64
	ID     int32
	Parent int32
	Job    int32
}

// keepSpans bounds the spans retained for the Chrome trace file (whole jobs,
// from the first traced job on, until the bound is passed); every traced
// job feeds the per-name aggregates regardless.
const keepSpans = 40_000

// tracer accumulates the spans of one traced repetition. Each job records
// into its own jobTrace; finish folds a completed job into the per-name
// totals and retains the first jobs' spans for the trace file.
type tracer struct {
	epoch time.Time
	nextJ atomic.Int32

	mu      sync.Mutex
	jobs    int
	count   map[string]int64
	busyNs  map[string]int64     // summed span durations by name
	selfNs  map[string]int64     // summed self times by name
	samples map[string][]float64 // per-span durations (µs) for sampled names
	kept    []span
}

// sampledSpans are the names whose individual durations are retained for
// percentiles; everything else only needs totals.
var sampledSpans = map[string]bool{spanRPC: true, spanWait: true}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		count:   map[string]int64{},
		busyNs:  map[string]int64{},
		selfNs:  map[string]int64{},
		samples: map[string][]float64{},
	}
}

// jobTrace collects the spans of one traced job; safe for concurrent use by
// the job's tasks.
type jobTrace struct {
	t      *tracer
	job    int32
	nextID atomic.Int32

	mu    sync.Mutex
	spans []span
}

// openSpan is a started, not yet recorded span.
type openSpan struct {
	jt     *jobTrace
	name   string
	id     int32
	parent int32
	start  int64
}

func (t *tracer) newJob() *jobTrace {
	return &jobTrace{t: t, job: t.nextJ.Add(1)}
}

// beginJob opens a traced job: a fresh jobTrace with its root span open,
// carried by the returned context (spanFrom reads both back). done closes
// the root span and folds the job into the tracer.
func (t *tracer) beginJob(ctx context.Context) (_ context.Context, done func()) {
	jt := t.newJob()
	root := jt.start(spanJob, 0)
	return withSpan(ctx, jt, root.id), func() { root.end(); t.finish(jt) }
}

// start opens a span under parent (0 = root). A nil jobTrace records
// nothing, so wrappers can run untraced.
func (jt *jobTrace) start(name string, parent int32) openSpan {
	if jt == nil {
		return openSpan{}
	}
	return openSpan{jt: jt, name: name, id: jt.nextID.Add(1), parent: parent,
		start: int64(time.Since(jt.t.epoch))}
}

// end records the span.
func (s openSpan) end() {
	if s.jt == nil {
		return
	}
	sp := span{Name: s.name, Start: s.start, End: int64(time.Since(s.jt.t.epoch)),
		ID: s.id, Parent: s.parent, Job: s.jt.job}
	s.jt.mu.Lock()
	s.jt.spans = append(s.jt.spans, sp)
	s.jt.mu.Unlock()
}

// add records a span whose instants were taken elsewhere and returns its id.
func (jt *jobTrace) add(name string, parent int32, start, end time.Time) int32 {
	sp := span{Name: name, Start: int64(start.Sub(jt.t.epoch)), End: int64(end.Sub(jt.t.epoch)),
		ID: jt.nextID.Add(1), Parent: parent, Job: jt.job}
	jt.mu.Lock()
	jt.spans = append(jt.spans, sp)
	jt.mu.Unlock()
	return sp.ID
}

// finish folds a completed job's spans into the tracer.
func (t *tracer) finish(jt *jobTrace) { t.fold(jt, 1) }

// attach folds spans that belong to no job (ingest_q5's writer, which
// bounds how many it records) into the totals and the trace file without
// counting a job.
func (t *tracer) attach(jt *jobTrace) { t.fold(jt, 0) }

func (t *tracer) fold(jt *jobTrace, jobs int) {
	jt.mu.Lock()
	spans := jt.spans
	jt.spans = nil
	jt.mu.Unlock()
	self := selfTimes(spans)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs += jobs
	for _, sp := range spans {
		t.count[sp.Name]++
		t.busyNs[sp.Name] += sp.End - sp.Start
		t.selfNs[sp.Name] += self[sp.ID]
		if sampledSpans[sp.Name] {
			t.samples[sp.Name] = append(t.samples[sp.Name], float64(sp.End-sp.Start)/1e3)
		}
	}
	if jobs == 0 || len(t.kept) < keepSpans {
		t.kept = append(t.kept, spans...)
	}
}

// perJob returns a per-name total divided by the traced job count.
func (t *tracer) perJob(m map[string]int64, name string) float64 {
	if t.jobs == 0 {
		return 0
	}
	return float64(m[name]) / float64(t.jobs)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (parallel tasks under one job) and may stick out of the parent (a task
// finishing after the caller stopped waiting); overlaps count once and the
// part outside the parent does not count.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > sp.End {
				hi = sp.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[sp.ID] = (sp.End - sp.Start) - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int32          `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the retained spans to path in Chrome trace format
// (chrome://tracing, Perfetto): one process per job; a job's direct
// children are packed onto lanes so parallel tasks sit side by side, and
// deeper spans nest on their parent's lane.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.kept...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Job != spans[j].Job {
			return spans[i].Job < spans[j].Job
		}
		return spans[i].Start < spans[j].Start
	})
	type key struct{ job, id int32 }
	lane := map[key]int{}
	laneEnd := map[int32][]int64{} // per job: when each lane frees up
	events := make([]chromeEvent, 0, len(spans))
	// Parents start before their children, so one pass in start order sees
	// every parent's lane before it is needed.
	for _, sp := range spans {
		l := 0
		switch pl, nested := lane[key{sp.Job, sp.Parent}]; {
		case sp.Parent == 0:
		case nested && pl != 0:
			l = pl
		default:
			ends := laneEnd[sp.Job]
			l = len(ends) + 1
			for i, e := range ends {
				if e <= sp.Start {
					l = i + 1
					break
				}
			}
			if l > len(ends) {
				ends = append(ends, 0)
			}
			ends[l-1] = sp.End
			laneEnd[sp.Job] = ends
		}
		lane[key{sp.Job, sp.ID}] = l
		events = append(events, chromeEvent{
			Name: sp.Name, Ph: "X",
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			Pid: sp.Job, Tid: l,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent, "job": sp.Job},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// spanCtx carries the current job trace and enclosing span through the
// contexts the engine hands to its functions and transports.
type spanCtx struct {
	jt *jobTrace
	id int32
}

type spanKey struct{}

func withSpan(ctx context.Context, jt *jobTrace, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{jt, id})
}

func spanFrom(ctx context.Context) (*jobTrace, int32) {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc.jt, sc.id
}
