package indexer

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"lakeharbor/internal/dfs"
)

// State is a managed structure's position in the lifecycle state machine:
//
//	absent ──build──▶ building ──ok──▶ ready ──evict──▶ evicted
//	   ▲                  │                                 │
//	   └─────fail─────────┘          rebuild-on-demand ─────┘ (→ building)
//
// A failed build returns to absent so the next Ensure retries it instead of
// replaying a stale error forever.
type State int

const (
	// StateAbsent means the structure is registered but not materialized.
	StateAbsent State = iota
	// StateBuilding means a build is in flight; callers may join it
	// (Ensure) or route around it (planner scan fallback).
	StateBuilding
	// StateReady means the structure is resident and queryable.
	StateReady
	// StateEvicted means the structure was built and then dropped to
	// reclaim budget; the next demand rebuilds it.
	StateEvicted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateEvicted:
		return "evicted"
	default:
		return "absent"
	}
}

// ManagerOptions tunes a lifecycle Manager.
type ManagerOptions struct {
	// StructureBudget caps the total modeled bytes (lake.SizeBytes) of
	// resident ready structures; 0 means unlimited. When a finishing build
	// pushes residency over the budget, cold ready structures are evicted
	// (never the one that just finished) until the budget holds again.
	StructureBudget int64
	// RebuildCost scores eviction victims: among the coldest candidates the
	// one cheapest to rebuild is evicted first (advisor.BuildCostNs fits
	// this signature). Nil treats all candidates as equally cheap, which
	// degrades to pure LRU.
	RebuildCost func(Spec) (float64, error)
	// Maintain is ignored: every Manager maintains its ready structures.
	// It survives only until the benchmark module stops naming it.
	Maintain bool
	// OnFinalize, when set, is called (outside the manager's mutex, before
	// the build's waiters are released) each time a build attempt settles,
	// with the structure's name and resulting state — StateReady on
	// success, StateAbsent on failure. Durability layers request a
	// checkpoint here so a freshly built structure reaches the snapshot
	// promptly.
	OnFinalize func(name string, st State)
}

// LifecycleCounters is a snapshot of the manager's lifetime counters.
type LifecycleCounters struct {
	// BuildsStarted counts build attempts actually launched (first builds
	// and rebuilds).
	BuildsStarted int64 `json:"builds_started"`
	// BuildsDeduped counts Ensure callers that joined an in-flight build
	// instead of starting their own (singleflight hits).
	BuildsDeduped int64 `json:"builds_deduped"`
	// Rebuilds counts builds of previously evicted structures.
	Rebuilds int64 `json:"rebuilds"`
	// Evictions counts structures dropped to reclaim budget or by request.
	Evictions int64 `json:"evictions"`
	// ScanFallbacks counts Acquire calls that found the structure not ready
	// and routed the caller to the scan path.
	ScanFallbacks int64 `json:"scan_fallbacks"`
}

// StructureStatus describes one managed structure for status surfaces
// (GET /v1/structures).
type StructureStatus struct {
	Name      string `json:"name"`
	Base      string `json:"base"`
	Kind      string `json:"kind"`
	State     string `json:"state"`
	SizeBytes int64  `json:"size_bytes"`
	// Builds counts completed successful builds of this structure.
	Builds int64 `json:"builds"`
	// Scanned/Emitted/PartsDone/PartsTotal report the in-flight build's
	// progress while State is "building".
	Scanned    int64  `json:"scanned,omitempty"`
	Emitted    int64  `json:"emitted,omitempty"`
	PartsDone  int64  `json:"parts_done,omitempty"`
	PartsTotal int64  `json:"parts_total,omitempty"`
	LastErr    string `json:"last_err,omitempty"`
}

// attempt is one build in flight. Waiters capture the attempt and block on
// done; err is set before done closes, so a waiter always reads its own
// generation's outcome even if the entry has moved on.
type attempt struct {
	build *BuildStatus
	done  chan struct{}
	err   error
}

// managed is one structure's lifecycle entry.
type managed struct {
	spec  Spec
	state State
	att   *attempt // non-nil iff state == StateBuilding
	err   error    // terminal error of the last failed build
	size  int64    // modeled resident bytes while ready
	// lastUsed is the manager clock value of the last touch; the eviction
	// policy treats lower values as colder.
	lastUsed int64
	builds   int64
}

// Manager is the structure lifecycle manager: it makes "lazy" structures
// *managed* — built once under singleflight, kept fresh by its maintainer
// whenever ready (ready ⇒ maintained), held resident under a memory budget,
// evicted cold-first with an advisor-scored victim choice, and
// transparently rebuilt on demand.
type Manager struct {
	cluster *dfs.Cluster
	ctx     context.Context // detached build/maintenance context
	opts    ManagerOptions
	maint   *Maintainer

	mu      sync.Mutex
	entries map[string]*managed
	clock   int64

	counters struct {
		sync.Mutex
		LifecycleCounters
	}
}

// NewManager creates a lifecycle manager over the cluster, with a Maintainer
// attached to the cluster's append stream. ctx bounds background builds and
// maintenance appends; builds started on behalf of an Ensure caller survive
// that caller's cancellation (other waiters may have joined), but die with
// ctx.
func NewManager(ctx context.Context, cluster *dfs.Cluster, opts ManagerOptions) *Manager {
	return &Manager{
		cluster: cluster,
		ctx:     ctx,
		opts:    opts,
		maint:   NewMaintainer(ctx, cluster),
		entries: make(map[string]*managed),
	}
}

// Maintainer returns the manager's maintainer.
func (m *Manager) Maintainer() *Maintainer { return m.maint }

// Register records a spec under lifecycle management. Registering does no
// work; the structure stays absent until Ensure, Build, or Acquire demands
// it. Re-registering replaces the spec only while the structure is absent.
func (m *Manager) Register(spec Spec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[spec.Name]; ok && e.state != StateAbsent {
		return fmt.Errorf("indexer: %q is %s; cannot re-register", spec.Name, e.state)
	}
	m.entries[spec.Name] = &managed{spec: spec}
	return nil
}

// Names returns the managed structure names.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.entries))
	for n := range m.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// State returns the named structure's current lifecycle state.
func (m *Manager) State(name string) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[name]
	if !ok {
		return StateAbsent, fmt.Errorf("indexer: no spec registered for %q", name)
	}
	return e.state, nil
}

// Ensure makes the named structure ready, waiting for the build to finish.
// Concurrent callers share one build (singleflight): exactly one launches
// it, the rest join and are counted as deduped. An evicted structure is
// rebuilt. ctx cancellation abandons the wait, not the shared build.
func (m *Manager) Ensure(ctx context.Context, name string) error {
	m.mu.Lock()
	e, ok := m.entries[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("indexer: no spec registered for %q", name)
	}
	switch e.state {
	case StateReady:
		m.touchLocked(e)
		m.mu.Unlock()
		return nil
	case StateBuilding:
		m.addCounter(func(c *LifecycleCounters) { c.BuildsDeduped++ })
	default: // absent or evicted
		m.startBuildLocked(e)
	}
	att := e.att
	m.mu.Unlock()
	select {
	case <-att.done:
		return att.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// EnsureAll starts a build of every registered structure that is absent or
// evicted and waits for every build in flight, so independent builds
// overlap; when it returns, their OnFinalize calls have run. Under a
// structure budget a late build may evict an earlier one: Ensure a
// structure again before using it.
func (m *Manager) EnsureAll(ctx context.Context) error {
	var atts []*attempt
	m.mu.Lock()
	for _, e := range m.entries {
		if e.state == StateAbsent || e.state == StateEvicted {
			m.startBuildLocked(e)
		}
		if e.att != nil {
			atts = append(atts, e.att)
		}
	}
	m.mu.Unlock()
	for _, att := range atts {
		select {
		case <-att.done:
			if att.err != nil {
				return att.err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Build starts (or joins) a build without waiting and reports the resulting
// state: StateReady for a no-op on a ready structure, StateBuilding when a
// build is now in flight.
func (m *Manager) Build(name string) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[name]
	if !ok {
		return StateAbsent, fmt.Errorf("indexer: no spec registered for %q", name)
	}
	if e.state == StateAbsent || e.state == StateEvicted {
		m.startBuildLocked(e)
	}
	return e.state, nil
}

// Evict drops a ready structure to reclaim its budget; the next demand
// rebuilds it. Evicting a building or non-resident structure is an error.
func (m *Manager) Evict(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[name]
	if !ok {
		return fmt.Errorf("indexer: no spec registered for %q", name)
	}
	if e.state != StateReady {
		return fmt.Errorf("indexer: cannot evict %q: state is %s, not ready", name, e.state)
	}
	m.evictLocked(e)
	return nil
}

// Acquire is the planner's routing call: it reports whether the structure
// is ready for use, touching it for LRU accounting when it is. When the
// structure is building and maxWait > 0, Acquire waits up to maxWait for
// the build; the time spent is returned for trace attribution. When the
// structure is absent or evicted, a background (re)build is kicked off and
// the caller is routed to the scan path (counted as a scan fallback).
// Unknown names report ready=true so unmanaged planners keep old behavior.
func (m *Manager) Acquire(ctx context.Context, name string, maxWait time.Duration) (ready bool, waited time.Duration) {
	m.mu.Lock()
	e, ok := m.entries[name]
	if !ok {
		m.mu.Unlock()
		return true, 0
	}
	switch e.state {
	case StateReady:
		m.touchLocked(e)
		m.mu.Unlock()
		return true, 0
	case StateAbsent, StateEvicted:
		m.startBuildLocked(e)
	}
	att := e.att
	m.mu.Unlock()

	if maxWait > 0 && att != nil {
		start := time.Now()
		t := time.NewTimer(maxWait)
		defer t.Stop()
		select {
		case <-att.done:
			waited = time.Since(start)
			if att.err == nil {
				m.mu.Lock()
				if e.state == StateReady {
					m.touchLocked(e)
					m.mu.Unlock()
					return true, waited
				}
				m.mu.Unlock()
			}
		case <-t.C:
			waited = maxWait
		case <-ctx.Done():
			waited = time.Since(start)
		}
	}
	m.addCounter(func(c *LifecycleCounters) { c.ScanFallbacks++ })
	return false, waited
}

// ResidentBytes returns the total modeled bytes of ready structures,
// refreshed from storage (maintained indexes grow after their build).
func (m *Manager) ResidentBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.residentLocked()
}

// Counters returns a snapshot of the lifecycle counters.
func (m *Manager) Counters() LifecycleCounters {
	m.counters.Lock()
	defer m.counters.Unlock()
	return m.counters.LifecycleCounters
}

// Status snapshots every managed structure, sorted by name.
func (m *Manager) Status() []StructureStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StructureStatus, 0, len(m.entries))
	for name, e := range m.entries {
		st := StructureStatus{
			Name:   name,
			Base:   e.spec.Base,
			Kind:   e.spec.Kind.String(),
			State:  e.state.String(),
			Builds: e.builds,
		}
		if e.state == StateReady {
			st.SizeBytes = m.sizeLocked(e)
		}
		if e.att != nil {
			b := e.att.build
			st.Scanned = b.Scanned()
			st.Emitted = b.Emitted()
			st.PartsDone, st.PartsTotal = b.Watermark()
		}
		if e.err != nil {
			st.LastErr = e.err.Error()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (m *Manager) addCounter(fn func(*LifecycleCounters)) {
	m.counters.Lock()
	fn(&m.counters.LifecycleCounters)
	m.counters.Unlock()
}

func (m *Manager) touchLocked(e *managed) {
	m.clock++
	e.lastUsed = m.clock
}

// startBuildLocked launches a build for an absent or evicted entry and
// installs its attempt. The maintainer is registered in buffered mode BEFORE
// the build starts and flipped live by the build's per-partition barrier,
// so appends racing the build land in the index exactly once.
func (m *Manager) startBuildLocked(e *managed) {
	wasEvicted := e.state == StateEvicted
	e.state = StateBuilding
	e.err = nil

	// A missing base fails the build below with a precise error; no watch is
	// registered for it.
	var buildOpts BuildOptions
	if base, err := m.cluster.File(e.spec.Base); err == nil {
		if bw, err := m.maint.WatchBuilding(e.spec, base.NumPartitions()); err == nil {
			buildOpts.Barrier = bw.GoLive
		}
	}

	att := &attempt{done: make(chan struct{})}
	att.build = StartBuild(m.ctx, m.cluster, e.spec, buildOpts)
	e.att = att
	m.addCounter(func(c *LifecycleCounters) {
		c.BuildsStarted++
		if wasEvicted {
			c.Rebuilds++
		}
	})
	go m.finalize(e, att)
}

// finalize joins one build attempt and settles the entry: success makes the
// structure ready (and enforces the budget), failure returns it to absent
// so the next demand retries instead of replaying a poisoned error.
func (m *Manager) finalize(e *managed, att *attempt) {
	<-att.build.done
	err := att.build.Err()
	m.mu.Lock()
	att.err = err
	e.att = nil
	if err != nil {
		e.state = StateAbsent
		e.err = err
		m.maint.Unwatch(e.spec.Name)
	} else {
		e.state = StateReady
		e.builds++
		e.size = m.sizeLocked(e)
		m.touchLocked(e)
		m.enforceBudgetLocked(e)
	}
	st := e.state
	m.mu.Unlock()
	if m.opts.OnFinalize != nil {
		m.opts.OnFinalize(e.spec.Name, st)
	}
	close(att.done)
}

// sizeLocked refreshes and returns the entry's modeled resident size.
func (m *Manager) sizeLocked(e *managed) int64 {
	if sz, err := m.cluster.FileSizeBytes(e.spec.Name); err == nil {
		e.size = sz
	}
	return e.size
}

func (m *Manager) residentLocked() int64 {
	var total int64
	for _, e := range m.entries {
		if e.state == StateReady {
			total += m.sizeLocked(e)
		}
	}
	return total
}

// enforceBudgetLocked evicts cold ready structures until residency fits the
// budget. exclude (the structure that just finished building or was just
// used) is never a victim — evicting it would thrash the build that is
// satisfying current demand.
func (m *Manager) enforceBudgetLocked(exclude *managed) {
	if m.opts.StructureBudget <= 0 {
		return
	}
	for m.residentLocked() > m.opts.StructureBudget {
		v := m.pickVictimLocked(exclude)
		if v == nil {
			return // nothing left to evict; the excluded entry alone overflows
		}
		m.evictLocked(v)
	}
}

// pickVictimLocked chooses the eviction victim: LRU determines the cold
// set — the two least-recently-used ready structures — and the rebuild
// cost model (ManagerOptions.RebuildCost, typically advisor.BuildCostNs)
// picks the cheaper-to-rebuild of those. Without a cost model this is pure
// LRU.
func (m *Manager) pickVictimLocked(exclude *managed) *managed {
	var cands []*managed
	for _, e := range m.entries {
		if e != exclude && e.state == StateReady {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUsed < cands[j].lastUsed })
	if len(cands) == 1 || m.opts.RebuildCost == nil {
		return cands[0]
	}
	a, b := cands[0], cands[1]
	costA, errA := m.opts.RebuildCost(a.spec)
	costB, errB := m.opts.RebuildCost(b.spec)
	if errA != nil || errB != nil || costA <= costB {
		return a
	}
	return b
}

func (m *Manager) evictLocked(e *managed) {
	m.maint.Unwatch(e.spec.Name)
	m.cluster.DropFile(e.spec.Name)
	e.state = StateEvicted
	e.size = 0
	m.addCounter(func(c *LifecycleCounters) { c.Evictions++ })
}
