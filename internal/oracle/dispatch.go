package oracle

import (
	"context"
	"errors"

	"lakeharbor/internal/sched"
)

// At dispatch=sched the job runs as a three-tenant mix: three concurrent
// executions on ONE shared weighted-fair scheduler with unequal weights
// (9:3:1) and one tenant held to a single job. Sharing a worker set with
// rivals and being throttled to a 1/13 share must never change an answer,
// so every tenant's result goes through the full check set. On top, the
// scheduler's own contract:
//
//   - admission: the over-quota tenant is rejected with ErrOverQuota while
//     its slot is held, and admitted after release;
//   - no starvation: every admitted job completes (run's timeout);
//   - weighted fairness: when the mix produced a meaningful fairness
//     window (>= tenantWindowMin dispatches in whole virtual-clock rounds
//     with all three tenants backlogged), each tenant's observed share of
//     that window is within tenantShareTol (relative) of its weight share;
//   - accounting: the scheduler drains to zero queued/in-flight/admitted.

const (
	// tenantWindowMin is the minimum fairness window for the weighted-share
	// invariant to be meaningful; below it the mix never truly contended
	// (tiny scenarios drain too fast) and the share check is skipped.
	tenantWindowMin = 100
	// tenantShareTol is the relative weighted-share error bound.
	tenantShareTol = 0.15
)

// tenantMix is the fixed 9:3:1 mix.
var tenantMix = []sched.TenantConfig{
	{Name: "t-heavy", Weight: 9},
	{Name: "t-mid", Weight: 3},
	{Name: "t-light", Weight: 1, MaxJobs: 1},
}

// dispatch puts the point's dispatcher in place: the standing per-node
// workers run one untenanted job, or a fresh shared scheduler runs the
// tenant mix after its admission checks.
func (w *world) dispatch(context.Context) error {
	if w.p.is(dispatch, "pool") {
		w.tenants = []string{""}
		return nil
	}
	s, err := sched.New(sched.Options{Workers: 4, ShedDepth: -1}, tenantMix...)
	if err != nil {
		return err
	}
	w.closers = append(w.closers, s.Close)
	w.sched = s
	for _, cfg := range tenantMix {
		w.tenants = append(w.tenants, cfg.Name)
	}

	// Admission, before any task exists: hold t-light's one job slot,
	// require a typed rejection, release, require admission.
	hold, err := s.StartJob("t-light")
	if err != nil {
		w.fail("sched: t-light first admission failed: %v", err)
		return nil
	}
	if _, err := s.StartJob("t-light"); !errors.Is(err, sched.ErrOverQuota) {
		w.fail("sched: t-light over quota admitted anyway (err=%v)", err)
	}
	hold.Finish()
	if probe, err := s.StartJob("t-light"); err != nil {
		w.fail("sched: t-light rejected after its slot was released: %v", err)
	} else {
		probe.Finish()
	}
	return nil
}

// checkShares asserts weighted fairness over the contention window and a
// clean drain once every tenant's job has finished.
func (w *world) checkShares() {
	st := w.sched.Stats()
	if st.WindowTotal >= tenantWindowMin {
		for _, ts := range st.Tenants {
			relErr := (ts.WindowShare - ts.FairShare) / ts.FairShare
			if relErr < 0 {
				relErr = -relErr
			}
			if relErr > tenantShareTol {
				w.fail("sched: weighted share: tenant %s observed %.4f of the window (%d dispatches), fair share %.4f, rel err %.2f > %.2f",
					ts.Name, ts.WindowShare, st.WindowTotal, ts.FairShare, relErr, tenantShareTol)
			}
		}
	}
	if st.QueueDepth != 0 {
		w.fail("sched: %d tasks left queued after all jobs finished", st.QueueDepth)
	}
	for _, ts := range st.Tenants {
		if ts.InFlight != 0 || ts.Jobs != 0 {
			w.fail("sched: tenant %s leaked inflight=%d jobs=%d", ts.Name, ts.InFlight, ts.Jobs)
		}
	}
}
