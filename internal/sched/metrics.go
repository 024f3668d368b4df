package sched

import (
	"lakeharbor/internal/obs"
	"lakeharbor/internal/trace"
)

// TenantStats is one tenant's point-in-time slice of the scheduler.
type TenantStats struct {
	Name     string `json:"name"`
	Weight   int    `json:"weight"`
	Priority int    `json:"priority,omitempty"`

	Queued   int `json:"queued"`
	InFlight int `json:"inflight"`
	Jobs     int `json:"jobs"`

	Dispatched   int64 `json:"dispatched"`
	Shed         int64 `json:"shed"`
	JobsAdmitted int64 `json:"jobs_admitted"`
	JobsRejected int64 `json:"jobs_rejected"`
	InFlightHigh int   `json:"inflight_high"`

	// FairShare is the tenant's entitled fraction (weight over the sum of
	// all weights); WindowShare is the fraction of fairness-window
	// dispatches (those of whole virtual-clock rounds in which every tenant
	// stayed backlogged) the tenant actually received; Deficit = FairShare − WindowShare, positive when
	// the tenant is being shortchanged. All zero until the window has
	// samples.
	FairShare   float64 `json:"fair_share"`
	WindowShare float64 `json:"window_share"`
	Deficit     float64 `json:"deficit"`

	// Wait digests the tenant's queue-wait distribution in nanoseconds.
	Wait trace.HistSummary `json:"wait"`

	wait trace.HistSnapshot
}

// Stats is a point-in-time snapshot of the whole scheduler.
type Stats struct {
	Workers     int           `json:"workers"`
	Spawned     int           `json:"spawned"`
	Idle        int           `json:"idle"`
	QueueDepth  int           `json:"queue_depth"`
	ShedDepth   int           `json:"shed_depth"`
	WindowTotal int64         `json:"window_total"`
	Tenants     []TenantStats `json:"tenants"`
}

// Stats snapshots the scheduler. Tenants are sorted by name.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:     s.opts.Workers,
		Spawned:     s.workers.Live(),
		Idle:        s.workers.Parked(),
		QueueDepth:  s.queueDepth,
		ShedDepth:   s.opts.ShedDepth,
		WindowTotal: s.windowTotal,
	}
	totalWeight := 0
	for _, t := range s.order {
		totalWeight += t.cfg.Weight
	}
	for _, t := range s.order {
		ts := TenantStats{
			Name:         t.cfg.Name,
			Weight:       t.cfg.Weight,
			Priority:     t.cfg.Priority,
			Queued:       t.q.Len(),
			InFlight:     t.inflight,
			Jobs:         t.jobs,
			Dispatched:   t.dispatched,
			Shed:         t.shed,
			JobsAdmitted: t.jobsAdmitted,
			JobsRejected: t.jobsRejected,
			InFlightHigh: t.inflightHigh,
			wait:         t.waitHist.Snapshot(),
		}
		ts.Wait = ts.wait.Summary()
		if totalWeight > 0 {
			ts.FairShare = float64(t.cfg.Weight) / float64(totalWeight)
		}
		if s.windowTotal > 0 {
			ts.WindowShare = float64(t.windowServed) / float64(s.windowTotal)
			ts.Deficit = ts.FairShare - ts.WindowShare
		}
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}

var (
	schedWorkers     = obs.NewGauge("lakeharbor_sched_workers", "Cluster-wide worker ceiling.")
	schedSpawned     = obs.NewGauge("lakeharbor_sched_workers_spawned", "Workers actually started (lazy spawn up to the ceiling).")
	schedQueueDepth  = obs.NewGauge("lakeharbor_sched_queue_depth", "Total queued, undispatched tasks across all tenants.")
	schedShedDepth   = obs.NewGauge("lakeharbor_sched_shed_depth", "Queue depth above which admission sheds new jobs.")
	schedWindow      = obs.NewCounter("lakeharbor_sched_window_total", "Dispatches in whole virtual-clock rounds during which every tenant stayed backlogged (fairness-window denominator).")
	tenantInflight   = obs.NewGauge("lakeharbor_tenant_inflight", "Tasks currently executing per tenant.", "tenant")
	tenantQueued     = obs.NewGauge("lakeharbor_tenant_queued", "Tasks queued, not yet dispatched, per tenant.", "tenant")
	tenantJobs       = obs.NewGauge("lakeharbor_tenant_jobs", "Jobs currently admitted per tenant.", "tenant")
	tenantDispatched = obs.NewCounter("lakeharbor_tenant_dispatched_total", "Tasks dispatched per tenant.", "tenant")
	tenantShed       = obs.NewCounter("lakeharbor_tenant_shed_total", "Job submissions rejected (quota or load-shed) per tenant.", "tenant")
	tenantAdmitted   = obs.NewCounter("lakeharbor_tenant_jobs_admitted_total", "Jobs admitted per tenant.", "tenant")
	tenantDeficit    = obs.NewGauge("lakeharbor_tenant_fair_share_deficit", "Entitled minus observed dispatch share over the fairness window; positive = shortchanged (the lakectl top DEFICIT column).", "tenant")
	tenantQueueWait  = obs.NewSummary("lakeharbor_tenant_queue_wait_seconds", "Queue wait (enqueue to dispatch) per tenant.", 1e-9, []float64{0.5, 0.9, 0.99}, "tenant")
)

// Collect renders the scheduler's state: pool-level lakeharbor_sched_*
// gauges plus per-tenant lakeharbor_tenant_* series carrying a tenant label
// — in-flight, queue depth, shed counts, fair-share deficit, and queue-wait
// quantiles.
func (s *Scheduler) Collect(w *obs.Writer) {
	st := s.Stats()
	w.Sample(schedWorkers, float64(st.Workers))
	w.Sample(schedSpawned, float64(st.Spawned))
	w.Sample(schedQueueDepth, float64(st.QueueDepth))
	w.Sample(schedShedDepth, float64(st.ShedDepth))
	w.Sample(schedWindow, float64(st.WindowTotal))
	for _, t := range st.Tenants {
		w.Sample(tenantInflight, float64(t.InFlight), t.Name)
		w.Sample(tenantQueued, float64(t.Queued), t.Name)
		w.Sample(tenantJobs, float64(t.Jobs), t.Name)
		w.Sample(tenantDispatched, float64(t.Dispatched), t.Name)
		w.Sample(tenantShed, float64(t.Shed), t.Name)
		w.Sample(tenantAdmitted, float64(t.JobsAdmitted), t.Name)
		w.Sample(tenantDeficit, t.Deficit, t.Name)
		w.Summary(tenantQueueWait, t.wait, t.Name)
	}
}
