package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// This file implements the per-job event timeline: a bounded ring of
// execution events (completed tasks, enqueues, retries, batch splits) with
// node + stage attribution, an exporter to Chrome trace-event JSON (the
// format Perfetto and chrome://tracing load), and a critical-path extractor
// that reports where a job's wall time actually went.

// EventKind labels one entry of a job's event log.
type EventKind string

const (
	// EvTask is a completed task: TS is its execution begin, Dur its
	// service time, Wait the queue wait that preceded it, Ptrs its batch
	// size (0 for record tasks).
	EvTask EventKind = "task"
	// EvEnqueue marks a task landing on a node's queue; Ptrs carries the
	// resulting queue depth.
	EvEnqueue EventKind = "enqueue"
	// EvRetry marks one Dereferencer retry after a transient failure.
	EvRetry EventKind = "retry"
	// EvSplit marks a failed batch falling back to per-pointer retries;
	// Ptrs carries the batch size that split.
	EvSplit EventKind = "split"
	// EvRPC is a completed remote storage round trip issued by a node: TS
	// is the call begin, Dur its round-trip time. The interval nests inside
	// the issuing task's EvTask span, so the critical-path extractor can
	// name wire-dominated segments as (stage, node, rpc).
	EvRPC EventKind = "rpc"
)

// Event is one entry of a job's timeline. All times are nanosecond offsets
// from the job's start, so logs are compact and trivially comparable.
type Event struct {
	Kind   EventKind `json:"kind"`
	Stage  int       `json:"stage"`
	Node   int       `json:"node"`
	Worker int       `json:"worker,omitempty"`
	// TS is the event time (for EvTask: execution begin), ns from job start.
	TS int64 `json:"ts"`
	// Dur is the task's service time in ns (EvTask only).
	Dur int64 `json:"dur,omitempty"`
	// Wait is the queue wait that preceded TS in ns (EvTask only).
	Wait int64 `json:"wait,omitempty"`
	// Ptrs is the task's batch size, the queue depth (EvEnqueue), or the
	// split batch's size (EvSplit).
	Ptrs int `json:"ptrs,omitempty"`
}

// DefaultEventCap is the event-ring capacity used when a caller enables
// timeline capture without choosing one. 8192 events is ~0.5 MB and covers
// every job the harnesses run; longer jobs keep their newest events and
// report the overwritten count.
const DefaultEventCap = 8192

// A new ring starts at eventRingStart events; a released Trace keeps its ring
// for the next job up to eventRingKeep: memory follows the events recent jobs
// recorded (Q5′ at the benchmark's scale, 1 024), not the cap.
const eventRingStart, eventRingKeep = 256, 2048

// EventRing is a bounded ring of timeline events. It grows on demand up to
// its capacity; once full, the oldest event is overwritten and counted as
// dropped, so a job's event memory is capped regardless of how long it
// runs. Methods are safe for concurrent use.
type EventRing struct {
	mu      sync.Mutex
	buf     []Event // every retained event; a ring once len(buf) == limit
	limit   int
	head    int // index of the oldest retained event (0 until the ring is full)
	dropped int64
}

// Add appends one event, overwriting the oldest when the ring is full.
func (r *EventRing) Add(ev Event) {
	r.mu.Lock()
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.head] = ev
		r.head = (r.head + 1) % r.limit
		r.dropped++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained events in arrival order plus the count of
// events overwritten since the ring was created.
func (r *EventRing) Snapshot() (events []Event, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	events = make([]Event, len(r.buf))
	n := copy(events, r.buf[r.head:])
	copy(events[n:], r.buf[:r.head])
	return events, r.dropped
}

// rpcTrackTid is the synthetic thread id RPC spans render on in Chrome
// trace output, one shared track per node process.
const rpcTrackTid = 1 << 20

// chromeEvent is one entry of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the snapshot's event log as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Nodes
// map to processes and workers to threads, so each worker's tasks form one
// non-overlapping track; retries, splits, and enqueues appear as instant
// markers. Timestamps are microseconds from job start.
func (s *Snapshot) WriteChromeTrace(w io.Writer) error {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })

	stageName := func(i int) string {
		if i >= 0 && i < len(s.Stages) {
			return fmt.Sprintf("s%d %s", i, s.Stages[i].Name)
		}
		return fmt.Sprintf("s%d", i)
	}
	out := make([]chromeEvent, 0, len(evs)+2*len(s.Nodes))
	seenNode := map[int]bool{}
	for _, ev := range evs {
		if !seenNode[ev.Node] {
			seenNode[ev.Node] = true
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", Pid: ev.Node,
				Args: map[string]any{"name": fmt.Sprintf("node %d", ev.Node)},
			})
		}
		ce := chromeEvent{
			TS:  float64(ev.TS) / 1e3,
			Pid: ev.Node,
			Tid: ev.Worker,
			Cat: string(ev.Kind),
		}
		switch ev.Kind {
		case EvTask:
			ce.Name = stageName(ev.Stage)
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
			ce.Args = map[string]any{"stage": ev.Stage, "ptrs": ev.Ptrs, "queueWaitUs": float64(ev.Wait) / 1e3}
		case EvRPC:
			// RPC spans get their own per-node track (tasks live on worker
			// tids) so wire time is visible without overlapping task slices.
			ce.Name = "rpc " + stageName(ev.Stage)
			ce.Ph = "X"
			ce.Tid = rpcTrackTid
			ce.Dur = float64(ev.Dur) / 1e3
			ce.Args = map[string]any{"stage": ev.Stage}
		case EvEnqueue:
			ce.Name = "enqueue " + stageName(ev.Stage)
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{"stage": ev.Stage, "depth": ev.Ptrs}
		default: // retry, split, future kinds
			ce.Name = string(ev.Kind) + " " + stageName(ev.Stage)
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{"stage": ev.Stage, "ptrs": ev.Ptrs}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     out,
		"otherData": map[string]any{
			"job":           s.Job,
			"eventsDropped": s.EventsDropped,
		},
	})
}

// CritSegment is one segment of a job's (approximate) critical path: a
// contiguous span of the job's wall time attributed to one (stage, node,
// phase) — the longest pole holding the job open during that span.
type CritSegment struct {
	Stage int `json:"stage"`
	Node  int `json:"node"`
	// Phase is "exec" (tasks running), "queue" (tasks waiting for a
	// worker), or "rpc" (remote storage round trips in flight). A
	// queue-dominated segment means the node's pool, not the storage path,
	// was the bottleneck; an rpc-dominated segment means the wire was.
	Phase string `json:"phase"`
	// Start and End are ns offsets from job start; Span = End - Start.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	Span  int64 `json:"span"`
	// Tasks is how many task intervals of this attribution overlapped the
	// segment.
	Tasks int `json:"tasks"`
}

// Sweep phases, in tie-break preference order: rpc, then exec, then queue.
// An rpc interval nests inside its task's exec interval, so the sweep counts
// that task toward rpc only (exec counts tasks not in a round trip).
const (
	phaseRPC uint8 = iota
	phaseExec
	phaseQueue
)

// critKey identifies one attribution group of the sweep.
type critKey struct {
	stage int
	node  int
	ph    uint8
}

func (k critKey) phase() string {
	switch k.ph {
	case phaseRPC:
		return "rpc"
	case phaseQueue:
		return "queue"
	default:
		return "exec"
	}
}

// CriticalPath extracts the top-k longest-pole segments from a job's event
// log. Each completed task contributes an execution interval [TS, TS+Dur)
// attributed to (stage, node, exec) and, when it waited, a queue interval
// [TS-Wait, TS) attributed to (stage, node, queue); each completed remote
// round trip contributes [TS, TS+Dur) attributed to (stage, node, rpc).
// The extractor sweeps the job's timeline; every instant is attributed to
// the group with the most concurrently active intervals — a task with its
// round trip in flight counts toward rpc, not exec — (ties prefer rpc over
// exec over queue, then lower stage, then lower node), adjacent
// instants with the same winner merge into segments, and the k longest
// segments are returned, longest first. Idle gaps (no active interval)
// separate segments.
func CriticalPath(events []Event, k int) []CritSegment {
	type point struct {
		t     int64
		key   critKey
		delta int
	}
	var pts []point
	for _, ev := range events {
		switch ev.Kind {
		case EvTask:
			if ev.Dur > 0 {
				key := critKey{stage: ev.Stage, node: ev.Node, ph: phaseExec}
				pts = append(pts, point{t: ev.TS, key: key, delta: +1}, point{t: ev.TS + ev.Dur, key: key, delta: -1})
			}
			if ev.Wait > 0 {
				key := critKey{stage: ev.Stage, node: ev.Node, ph: phaseQueue}
				pts = append(pts, point{t: ev.TS - ev.Wait, key: key, delta: +1}, point{t: ev.TS, key: key, delta: -1})
			}
		case EvRPC:
			if ev.Dur > 0 {
				key := critKey{stage: ev.Stage, node: ev.Node, ph: phaseRPC}
				pts = append(pts, point{t: ev.TS, key: key, delta: +1}, point{t: ev.TS + ev.Dur, key: key, delta: -1})
			}
		}
	}
	if len(pts) == 0 || k <= 0 {
		return nil
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].t < pts[j].t })

	// prefer reports whether a beats b as the slice winner at equal counts.
	prefer := func(a, b critKey) bool {
		if a.ph != b.ph {
			return a.ph < b.ph
		}
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		return a.node < b.node
	}

	active := map[critKey]int{}
	var segs []CritSegment
	var cur *CritSegment
	var curKey critKey
	flush := func() {
		if cur != nil && cur.Span > 0 {
			segs = append(segs, *cur)
		}
		cur = nil
	}
	i := 0
	for i < len(pts) {
		t := pts[i].t
		starts := map[critKey]int{}
		for i < len(pts) && pts[i].t == t {
			p := pts[i]
			active[p.key] += p.delta
			if active[p.key] <= 0 {
				delete(active, p.key)
			}
			if p.delta > 0 {
				starts[p.key]++
			}
			i++
		}
		// Winner for the slice [t, next boundary).
		var winner critKey
		best := 0
		for key, n := range active {
			if key.ph == phaseExec {
				// A task waiting on its own round trip is on the wire, not
				// executing: its nested rpc interval leaves the exec count.
				n -= active[critKey{stage: key.stage, node: key.node, ph: phaseRPC}]
			}
			if n > best || (n == best && best > 0 && prefer(key, winner)) {
				best, winner = n, key
			}
		}
		switch {
		case best == 0: // idle gap
			if cur != nil {
				cur.End, cur.Span = t, t-cur.Start
			}
			flush()
		case cur == nil || winner != curKey:
			if cur != nil {
				cur.End, cur.Span = t, t-cur.Start
			}
			flush()
			curKey = winner
			cur = &CritSegment{
				Stage: winner.stage, Node: winner.node, Phase: winner.phase(),
				Start: t, Tasks: active[winner],
			}
		default:
			cur.Tasks += starts[curKey]
		}
	}
	flush()
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].Span > segs[j].Span })
	if len(segs) > k {
		segs = segs[:k]
	}
	return segs
}
