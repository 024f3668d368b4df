// Package sched is the cluster-wide multi-tenant task scheduler: one shared
// worker set serving every concurrently running job, with weighted-fair
// dispatch across tenants, per-tenant quotas, and admission control.
//
// A Scheduler owns ONE worker ceiling for the whole cluster and decides,
// task by task, whose work runs next. Its workers are a core.Workers, the
// same worker loop, spawn rule and FIFO the executor's standing per-node
// sets use; what is the scheduler's own is the pick policy:
//
//   - Weighted-fair queuing over per-tenant virtual time. Each tenant keeps
//     a FIFO of pending tasks and a virtual clock that advances by 1/weight
//     per dispatched task; workers always run the eligible backlogged tenant
//     with the smallest virtual time, so over any interval in which tenants
//     stay backlogged their task shares converge to their weight shares
//     within one task per tenant. A tenant going idle does not bank credit:
//     on re-arrival its clock is floored to the scheduler's virtual clock.
//   - Strict priority tiers above the fair queue: a higher-Priority tenant's
//     backlog is always served before lower tiers (weights apply within a
//     tier). Use sparingly — a saturated high tier starves lower ones by
//     design.
//   - Per-tenant quotas enforced where they are cheap: MaxJobs at admission
//     (StartJob) and MaxInFlight at dispatch (an over-cap tenant's tasks
//     stay queued; its virtual clock does not advance).
//   - Admission control: StartJob rejects unknown tenants, tenants over
//     their job quota, and — load shedding — any submission while the total
//     queued backlog exceeds ShedDepth. Rejections carry a machine-readable
//     *AdmissionError with a Retry-After hint so edges (httpapi) can answer
//     429 without guessing.
//
// The executor reaches the scheduler through core.TaskScheduler /
// core.SchedJob (set core.Options.Scheduler and core.Options.Tenant): a Job
// is one of the two adapters behind the executor's single dispatch path, the
// other being the job's queues in the standing per-node sets (DESIGN.md §11).
// Stats and Collect expose per-tenant slices (in-flight, queue depth and wait
// quantiles, shed counts, fair-share deficit) as lakeharbor_tenant_* series.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"lakeharbor/internal/core"
	"lakeharbor/internal/trace"
)

// DefaultWorkers is the cluster-wide worker ceiling when Options.Workers is
// zero: capacity is a property of the cluster, not of how many jobs happen
// to be running.
const DefaultWorkers = 512

// DefaultShedDepth is the total queued-task backlog above which admission
// sheds new jobs when Options.ShedDepth is zero.
const DefaultShedDepth = 4096

// Options configures a Scheduler.
type Options struct {
	// Workers caps the shared worker set: at most this many tasks execute
	// at once, cluster-wide, no matter how many jobs or tenants are active.
	// Workers are spawned on demand up to the ceiling and parked between
	// tasks. 0 selects DefaultWorkers.
	Workers int
	// ShedDepth is the total queued (undispatched) task count above which
	// StartJob sheds new submissions with ErrOverloaded. 0 selects
	// DefaultShedDepth; negative disables shedding.
	ShedDepth int
}

// TenantConfig declares one tenant to the scheduler.
type TenantConfig struct {
	// Name identifies the tenant; jobs carry it in core.Options.Tenant
	// and HTTP submissions in the X-Lake-Tenant header.
	Name string
	// Weight is the tenant's fair share: backlogged tenants in the same
	// priority tier receive worker time proportional to their weights.
	// It must be positive — a zero-weight tenant could never be scheduled,
	// so registration rejects it rather than letting submits hang.
	Weight int
	// Priority is the tenant's tier; higher tiers are served strictly
	// first. 0 is the default tier.
	Priority int
	// MaxInFlight caps the tenant's concurrently executing tasks
	// (0 = no cap). Excess tasks wait in the tenant's queue.
	MaxInFlight int
	// MaxJobs caps the tenant's concurrently admitted jobs (0 = no cap).
	// Excess jobs are rejected at StartJob with ErrOverQuota.
	MaxJobs int
}

// Admission rejection sentinels, matchable with errors.Is through the
// *AdmissionError StartJob wraps them in.
var (
	// ErrUnknownTenant rejects a tenant no TenantConfig declared.
	ErrUnknownTenant = errors.New("unknown tenant")
	// ErrOverQuota rejects a tenant already running MaxJobs jobs.
	ErrOverQuota = errors.New("tenant over concurrent-job quota")
	// ErrOverloaded sheds a submission because the total queued backlog
	// exceeds the shed depth.
	ErrOverloaded = errors.New("scheduler overloaded")
	// ErrClosed rejects work submitted after Close.
	ErrClosed = errors.New("scheduler closed")
)

// AdmissionError is the typed rejection StartJob returns: which tenant was
// refused, why (Unwrap matches the sentinels above), and how long the caller
// should wait before retrying (0 when retrying cannot help, e.g. an unknown
// tenant).
type AdmissionError struct {
	Tenant     string
	Err        error
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("sched: tenant %q: %v", e.Tenant, e.Err)
}

func (e *AdmissionError) Unwrap() error { return e.Err }

// schedTask is one queued unit of work.
type schedTask struct {
	run func(worker int)
	job *Job
	enq time.Time
}

// tenant is the live state of one registered tenant. All mutable fields are
// guarded by the scheduler's mutex except waitHist, which is internally
// lock-free.
type tenant struct {
	cfg TenantConfig

	q core.FIFO[schedTask] // pending tasks

	vtime    float64 // per-tenant virtual clock (advances 1/weight per dispatch)
	inflight int     // dispatched, not yet completed tasks
	jobs     int     // currently admitted jobs

	// Cumulative accounting.
	dispatched   int64
	shed         int64
	jobsAdmitted int64
	jobsRejected int64
	inflightHigh int
	windowServed int64 // dispatches in the fairness window's rounds
	roundServed  int64 // dispatches in the open round
	waitHist     trace.Histogram
}

// Scheduler is the shared multi-tenant dispatcher. Create it with New; it
// satisfies core.TaskScheduler, so plugging it into core.Options.Scheduler
// routes a job's every task through it.
type Scheduler struct {
	opts Options

	mu      sync.Mutex // also the worker set's lock
	workers *core.Workers[schedTask]
	tenants map[string]*tenant
	order   []*tenant // deterministic iteration for picking and stats

	vclock      float64 // virtual time of the last dispatch (arrival floor)
	queueDepth  int     // total queued, undispatched tasks
	windowTotal int64   // dispatches in the fairness window's rounds

	// The fairness window counts whole rounds of the virtual clock. A round
	// is one unit of virtual time, in which a tenant of weight w that stays
	// backlogged is due exactly w dispatches, so a window of whole rounds
	// measures the scheduler rather than where an all-backlogged stretch
	// happened to begin and end. The open round joins the window when it
	// closes, if every dispatch in it was taken with every tenant backlogged
	// and eligible and no tenant's clock was floored meanwhile.
	round      float64 // the open round: floor of its dispatches' virtual times
	roundClean bool

	closed bool
	manual bool // tests: suppress worker spawning and drive pickLocked directly
}

// New builds a Scheduler over the given tenants. Every tenant must have a
// unique name and a positive weight — rejecting a zero weight here is what
// guarantees a later Submit can never hang on an unschedulable tenant.
func New(opts Options, tenants ...TenantConfig) (*Scheduler, error) {
	if opts.Workers == 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("sched: Workers must be > 0, got %d", opts.Workers)
	}
	if opts.ShedDepth == 0 {
		opts.ShedDepth = DefaultShedDepth
	}
	s := &Scheduler{opts: opts, tenants: make(map[string]*tenant, len(tenants)), round: math.Inf(-1)}
	s.workers = core.NewWorkers(&s.mu, opts.Workers, s.pickLocked,
		func(tk *schedTask, worker int) { tk.run(worker) }, s.taskDoneLocked)
	for _, cfg := range tenants {
		if err := s.register(cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// register validates and adds one tenant (callers hold no lock: construction
// only).
func (s *Scheduler) register(cfg TenantConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("sched: tenant name must not be empty")
	}
	if cfg.Weight <= 0 {
		return fmt.Errorf("sched: tenant %q: weight must be > 0, got %d (a zero-weight tenant could never be scheduled)", cfg.Name, cfg.Weight)
	}
	if cfg.MaxInFlight < 0 || cfg.MaxJobs < 0 {
		return fmt.Errorf("sched: tenant %q: quotas must be >= 0", cfg.Name)
	}
	if _, dup := s.tenants[cfg.Name]; dup {
		return fmt.Errorf("sched: duplicate tenant %q", cfg.Name)
	}
	t := &tenant{cfg: cfg}
	s.tenants[cfg.Name] = t
	s.order = append(s.order, t)
	sort.Slice(s.order, func(i, j int) bool { return s.order[i].cfg.Name < s.order[j].cfg.Name })
	return nil
}

// StartJob implements core.TaskScheduler: admission control for one job.
// Rejections are immediate errors — never hangs — wrapped in *AdmissionError
// with a Retry-After hint when waiting could help.
func (s *Scheduler) StartJob(name string) (core.SchedJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &AdmissionError{Tenant: name, Err: ErrClosed}
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, &AdmissionError{Tenant: name, Err: ErrUnknownTenant}
	}
	var reject error
	if t.cfg.MaxJobs > 0 && t.jobs >= t.cfg.MaxJobs {
		reject = ErrOverQuota
	} else if s.opts.ShedDepth > 0 && s.queueDepth > s.opts.ShedDepth {
		reject = ErrOverloaded
	}
	if reject != nil {
		t.jobsRejected++
		t.shed++
		return nil, &AdmissionError{Tenant: name, Err: reject, RetryAfter: s.retryAfterLocked()}
	}
	t.jobs++
	t.jobsAdmitted++
	j := &Job{s: s, t: t}
	j.cv = sync.NewCond(&s.mu)
	return j, nil
}

// retryAfterLocked estimates how long a rejected caller should back off:
// one second base, growing with how far the backlog exceeds one "fill" of
// the worker pool, capped at 30s.
func (s *Scheduler) retryAfterLocked() time.Duration {
	return min(time.Second+time.Duration(s.queueDepth/(s.opts.Workers*4))*time.Second, 30*time.Second)
}

// Job is one admitted job's submission handle (core.SchedJob).
type Job struct {
	s *Scheduler
	t *tenant

	cv       *sync.Cond // on s.mu; signalled when pending reaches zero
	pending  int        // submitted tasks not yet completed (guarded by s.mu)
	finished bool
}

// Submit implements core.SchedJob: enqueue one task on the job's tenant
// fair queue. It returns the tenant's queue depth after the enqueue.
func (j *Job) Submit(run func(worker int)) (int, error) {
	s := j.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if j.finished {
		return 0, fmt.Errorf("sched: submit on a finished job (tenant %q)", j.t.cfg.Name)
	}
	t := j.t
	if t.q.Len() == 0 && t.vtime < s.vclock {
		// Re-arrival after idleness: floor the tenant's clock to the
		// scheduler's virtual time so banked idleness cannot monopolize
		// the workers, but never move the clock backwards.
		t.vtime = s.vclock
		s.roundClean = false
	}
	depth := t.q.Push(schedTask{run: run, job: j, enq: time.Now()})
	j.pending++
	s.queueDepth++
	// The task is runnable at once unless the tenant's in-flight cap already
	// covers its queued and running tasks; then a finishing worker picks it.
	if !s.manual && (t.cfg.MaxInFlight == 0 || depth+t.inflight <= t.cfg.MaxInFlight) {
		s.workers.Kick(s.workers.Live() < s.opts.Workers)
	}
	return depth, nil
}

// Finish implements core.SchedJob: wait for every submitted task to run,
// then release the job's admission slot.
func (j *Job) Finish() {
	s := j.s
	s.mu.Lock()
	j.finished = true
	for j.pending > 0 {
		j.cv.Wait()
	}
	j.t.jobs--
	s.mu.Unlock()
}

// pickLocked is the worker set's pick policy: it dequeues into tk the next
// task of the backlogged tenant under its in-flight cap with the highest
// priority, then the smallest virtual time, then (ties) the lexicographically
// first name, so selection is deterministic given identical state. The
// chosen tenant's clock advances by 1/weight, keeping task shares
// proportional to weights across backlogged tenants. Whole rounds of the
// virtual clock in which EVERY registered tenant stayed backlogged and
// eligible are additionally counted into the fairness window — the
// denominator the fair-share deficit metric and the tenancy oracle's
// weighted-share check are computed over, because proportional sharing is
// only defined while everyone is actually asking for service.
func (s *Scheduler) pickLocked(tk *schedTask) bool {
	var best *tenant
	eligible := 0
	for _, t := range s.order {
		if t.q.Len() == 0 || t.cfg.MaxInFlight > 0 && t.inflight >= t.cfg.MaxInFlight {
			continue
		}
		eligible++
		if best == nil || t.beats(best) {
			best = t
		}
	}
	if best == nil {
		return false
	}
	*tk = best.q.Pop()
	s.queueDepth--
	best.inflight++
	best.inflightHigh = max(best.inflightHigh, best.inflight)
	best.dispatched++
	// The scheduler's virtual clock is the high-water mark of dispatched
	// virtual times — monotone by construction. A plain assignment would
	// run it backwards whenever a cap- or priority-delayed tenant with an
	// old (small) clock finally gets served.
	s.vclock = max(s.vclock, best.vtime)
	// The epsilon absorbs the drift of summing 1/weight.
	if r := math.Floor(best.vtime + 1e-9); r != s.round {
		s.closeRoundLocked()
		s.round, s.roundClean = r, true
	}
	s.roundClean = s.roundClean && eligible == len(s.order) && len(s.order) > 1
	best.roundServed++
	best.vtime += 1 / float64(best.cfg.Weight)
	best.waitHist.RecordDur(time.Since(tk.enq))
	return true
}

// closeRoundLocked ends the open round, adding it to the fairness window
// if it stayed clean.
func (s *Scheduler) closeRoundLocked() {
	for _, t := range s.order {
		if s.roundClean {
			t.windowServed += t.roundServed
			s.windowTotal += t.roundServed
		}
		t.roundServed = 0
	}
}

// beats reports whether t should be dispatched before o.
func (t *tenant) beats(o *tenant) bool {
	if t.cfg.Priority != o.cfg.Priority {
		return t.cfg.Priority > o.cfg.Priority
	}
	if t.vtime != o.vtime {
		return t.vtime < o.vtime
	}
	return t.cfg.Name < o.cfg.Name
}

// taskDoneLocked retires one executed task: the tenant's in-flight slot frees
// (the finishing worker picks again before it parks, so a capped tenant that
// became eligible is served) and the job's pending count drops.
func (s *Scheduler) taskDoneLocked(tk *schedTask) {
	tk.job.t.inflight--
	tk.job.retire()
}

// retire settles one of the job's tasks, run or dropped, releasing Finish at
// the last (s.mu held).
func (j *Job) retire() {
	if j.pending--; j.pending == 0 && j.finished {
		j.cv.Broadcast()
	}
}

// Close shuts the workers down for tests and process exit: no further jobs are
// admitted, parked workers exit, and Close returns once running tasks
// complete. It must not race active jobs — callers Finish their jobs first;
// any still-queued tasks of a misbehaving caller are dropped with their
// jobs' accounting settled so a late Finish cannot hang.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, t := range s.order {
		for ; t.q.Len() > 0; s.queueDepth-- {
			t.q.Pop().job.retire()
		}
	}
	s.mu.Unlock()
	s.workers.Close()
}
