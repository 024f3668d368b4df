package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// This file implements the per-job event timeline: a bounded ring of
// execution events (one per completed task, plus retries, batch splits and
// remote round trips) with node + stage attribution, an exporter to Chrome
// trace-event JSON (the format Perfetto and chrome://tracing load), and a
// critical-path extractor that reports where a job's wall time actually
// went.

// EventKind labels one entry of a job's event log. It is one byte in memory
// and its name in text and JSON ("task", "retry", ...); the zero kind is
// the empty name.
type EventKind uint8

const (
	// EvTask is a completed task: TS is its execution begin, Dur its
	// service time, Wait the queue wait that preceded it, Ptrs its batch
	// size (0 for record tasks). The task was enqueued at TS − Wait, so an
	// enqueue needs no event of its own.
	EvTask EventKind = iota + 1
	// EvRetry marks one Dereferencer retry after a transient failure.
	EvRetry
	// EvSplit marks a failed batch falling back to per-pointer retries;
	// Ptrs carries the batch size that split.
	EvSplit
	// EvRPC is a completed remote storage round trip issued by a node: TS
	// is the call begin, Dur its round-trip time. The interval nests inside
	// the issuing task's EvTask span, so the critical-path extractor can
	// name wire-dominated segments as (stage, node, rpc).
	EvRPC
)

// eventKindNames maps each kind to its name; index 0 is the zero kind.
var eventKindNames = [...]string{"", "task", "retry", "split", "rpc"}

// String returns the kind's name, or EventKind(n) for a kind with none.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// MarshalText encodes the kind as its name; a kind with no name is an error.
func (k EventKind) MarshalText() ([]byte, error) {
	if int(k) >= len(eventKindNames) {
		return nil, fmt.Errorf("trace: unknown event kind %d", uint8(k))
	}
	return []byte(eventKindNames[k]), nil
}

// UnmarshalText decodes a kind's name; an unknown name is an error.
func (k *EventKind) UnmarshalText(text []byte) error {
	for i, name := range eventKindNames {
		if string(text) == name {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", text)
}

// Event is one entry of a job's timeline. All times are nanosecond offsets
// from the job's start, so logs are compact and trivially comparable. The
// kind and the attributions are narrow so an event is 48 bytes: a job's
// snapshot copies every one it retained.
type Event struct {
	Kind   EventKind `json:"kind"`
	Stage  int32     `json:"stage"`
	Node   int32     `json:"node"`
	Worker int32     `json:"worker,omitempty"`
	// TS is the event time (for EvTask: execution begin), ns from job start.
	TS int64 `json:"ts"`
	// Dur is the task's service time in ns (EvTask only).
	Dur int64 `json:"dur,omitempty"`
	// Wait is the queue wait that preceded TS in ns (EvTask only).
	Wait int64 `json:"wait,omitempty"`
	// Ptrs is the task's batch size, or the split batch's size (EvSplit).
	Ptrs int32 `json:"ptrs,omitempty"`
}

// DefaultEventCap is the event-ring capacity used when a caller enables
// timeline capture without choosing one. 8192 events is 384 KiB and covers
// every job the harnesses run; longer jobs keep their newest events and
// report the overwritten count.
const DefaultEventCap = 8192

// A new ring starts at eventRingStart events; a released Trace keeps its ring
// for the next job up to eventRingKeep: memory follows the events recent jobs
// recorded (a Q5′ job at the benchmark's scale, ~390, grows it once to 512),
// not the cap.
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
// non-overlapping track; retries and splits appear as instant markers, and
// so does each task's enqueue, derived from its event at TS − Wait on the
// task's own track. Only a task that ran has an event: the tasks a failed or
// cancelled job drains without running leave none, so their enqueues do not
// show. Timestamps are microseconds from job start.
func (s *Snapshot) WriteChromeTrace(w io.Writer) error {
	stageName := func(i int32) string {
		if i >= 0 && int(i) < len(s.Stages) {
			return fmt.Sprintf("s%d %s", i, s.Stages[i].Name)
		}
		return fmt.Sprintf("s%d", i)
	}
	out := make([]chromeEvent, 0, 2*len(s.Events)+len(s.Nodes))
	seenNode := map[int32]bool{}
	for _, ev := range s.Events {
		if !seenNode[ev.Node] {
			seenNode[ev.Node] = true
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", Pid: int(ev.Node),
				Args: map[string]any{"name": fmt.Sprintf("node %d", ev.Node)},
			})
		}
		ce := chromeEvent{
			TS:  float64(ev.TS) / 1e3,
			Pid: int(ev.Node),
			Tid: int(ev.Worker),
			Cat: ev.Kind.String(),
		}
		switch ev.Kind {
		case EvTask:
			ce.Name = stageName(ev.Stage)
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
			ce.Args = map[string]any{"stage": ev.Stage, "ptrs": ev.Ptrs, "queueWaitUs": float64(ev.Wait) / 1e3}
			out = append(out, chromeEvent{Name: "enqueue " + ce.Name, Cat: "enqueue", Ph: "i", S: "t",
				TS: float64(ev.TS-ev.Wait) / 1e3, Pid: ce.Pid, Tid: ce.Tid, Args: map[string]any{"stage": ev.Stage}})
		case EvRPC:
			// RPC spans get their own per-node track (tasks live on worker
			// tids) so wire time is visible without overlapping task slices.
			ce.Name = "rpc " + stageName(ev.Stage)
			ce.Ph = "X"
			ce.Tid = rpcTrackTid
			ce.Dur = float64(ev.Dur) / 1e3
			ce.Args = map[string]any{"stage": ev.Stage}
		default: // retry, split, future kinds
			ce.Name = ev.Kind.String() + " " + stageName(ev.Stage)
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{"stage": ev.Stage, "ptrs": ev.Ptrs}
		}
		out = append(out, ce)
	}
	// In time order; the stable sort keeps a task's enqueue before its slice
	// when it did not wait.
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
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
	// worker), or "rpc" (remote storage round trips in flight). A queue
	// segment means the job's tasks waited and none of them ran: dispatch
	// or admission held the job. An rpc segment means the wire did.
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
//
// Queued tasks weigh below any task that runs: a queue group wins an
// instant only when no task executes or is on the wire. A queued task is
// behind the tasks holding the workers (or the admission slots), so those
// tasks are what hold the job open; counting the queue by its length
// would hand a job whose tasks sit in a shared scheduler to the queue at
// every instant, and hide the one round trip that is actually in flight.
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
				key := critKey{stage: int(ev.Stage), node: int(ev.Node), ph: phaseExec}
				pts = append(pts, point{t: ev.TS, key: key, delta: +1}, point{t: ev.TS + ev.Dur, key: key, delta: -1})
			}
			if ev.Wait > 0 {
				key := critKey{stage: int(ev.Stage), node: int(ev.Node), ph: phaseQueue}
				pts = append(pts, point{t: ev.TS - ev.Wait, key: key, delta: +1}, point{t: ev.TS, key: key, delta: -1})
			}
		case EvRPC:
			if ev.Dur > 0 {
				key := critKey{stage: int(ev.Stage), node: int(ev.Node), ph: phaseRPC}
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
			if n <= 0 {
				continue
			}
			// A running group beats a waiting one whatever the counts.
			running, winnerRunning := key.ph != phaseQueue, winner.ph != phaseQueue
			switch {
			case best == 0, running && !winnerRunning:
				best, winner = n, key
			case running == winnerRunning && (n > best || n == best && prefer(key, winner)):
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
