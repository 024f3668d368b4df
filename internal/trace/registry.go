package trace

import (
	"sync"
	"time"
)

// Registry retains the snapshots of recent jobs in a fixed-size ring and
// accumulates cumulative totals (and merged latency distributions) across
// every job it has ever seen, so the metrics endpoint exposes monotone
// counters and stable quantiles even after old snapshots are evicted from
// the ring.
type Registry struct {
	mu sync.Mutex
	// recent is a circular buffer: head indexes the oldest retained
	// snapshot and n counts how many are held, so eviction is O(1)
	// regardless of the ring capacity.
	recent []*Snapshot
	head   int
	n      int
	nextID int64

	tot Totals    // cumulative over all recorded jobs (never decremented)
	lat Latencies // merged distributions over all recorded jobs
}

// Totals is a Registry's cumulative counter set over every job it has
// recorded, ring eviction notwithstanding.
type Totals struct {
	Jobs          int64         `json:"jobs"`
	Failed        int64         `json:"failed"`
	Tasks         int64         `json:"tasks"`
	Emits         int64         `json:"emits"`
	Retries       int64         `json:"retries"`
	Errors        int64         `json:"errors"`
	SlowTasks     int64         `json:"slowTasks"`
	Batches       int64         `json:"batches"`
	BatchedPtrs   int64         `json:"batchedPtrs"`
	BatchSplits   int64         `json:"batchSplits"`
	LocalIO       int64         `json:"localIO"`
	RemoteIO      int64         `json:"remoteIO"`
	EventsDropped int64         `json:"eventsDropped"`
	Busy          time.Duration `json:"busy"`
	Wall          time.Duration `json:"wall"`
}

// DefaultRegistryCap is how many recent job snapshots a Registry keeps.
const DefaultRegistryCap = 64

// NewRegistry creates a Registry retaining up to capacity snapshots
// (DefaultRegistryCap when capacity <= 0).
func NewRegistry(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultRegistryCap
	}
	return &Registry{recent: make([]*Snapshot, capacity)}
}

// Add records a finished job's snapshot, assigns it an ID, and folds it
// into the cumulative totals and merged latency distributions. Eviction of
// the oldest snapshot is O(1) (a circular-index overwrite).
func (r *Registry) Add(s *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s.ID = r.nextID
	if r.n < len(r.recent) {
		r.recent[(r.head+r.n)%len(r.recent)] = s
		r.n++
	} else {
		r.recent[r.head] = s
		r.head = (r.head + 1) % len(r.recent)
	}
	r.tot.Jobs++
	if s.Err != "" {
		r.tot.Failed++
	}
	r.tot.Wall += s.Elapsed
	for _, st := range s.Stages {
		r.tot.Tasks += st.Tasks
		r.tot.Emits += st.Emits
		r.tot.Retries += st.Retries
		r.tot.Errors += st.Errors
		r.tot.SlowTasks += st.SlowTasks
		r.tot.Batches += st.Batches
		r.tot.BatchedPtrs += st.BatchedPtrs
		r.tot.BatchSplits += st.BatchSplits
		r.tot.Busy += st.Busy
	}
	for _, n := range s.Nodes {
		r.tot.LocalIO += n.LocalIO
		r.tot.RemoteIO += n.RemoteIO
	}
	r.tot.EventsDropped += s.EventsDropped
	r.lat = r.lat.Merge(s.Lat)
}

// Recent returns the retained snapshots, newest first.
func (r *Registry) Recent() []*Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Snapshot, r.n)
	for i := 0; i < r.n; i++ {
		out[r.n-1-i] = r.recent[(r.head+i)%len(r.recent)]
	}
	return out
}

// Get returns the retained snapshot with the given ID, or nil.
func (r *Registry) Get(id int64) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.n; i++ {
		if s := r.recent[(r.head+i)%len(r.recent)]; s.ID == id {
			return s
		}
	}
	return nil
}

// Totals returns the cumulative counters over every recorded job.
func (r *Registry) Totals() Totals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tot
}

// Latencies returns the merged latency distributions over every recorded
// job, for quantile queries and machine-readable bench output.
func (r *Registry) Latencies() Latencies {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lat
}
