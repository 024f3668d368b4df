package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// taskDone is the worker loop's done step, for tests that play the worker in
// manual mode.
func (s *Scheduler) taskDone(tk schedTask) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taskDoneLocked(&tk)
}

// pick is the worker loop's next step, for the same tests: pickLocked into a
// task of the caller's. The caller holds s.mu.
func (s *Scheduler) pick() (tk schedTask, ok bool) {
	ok = s.pickLocked(&tk)
	return tk, ok
}

// TestRegistrationRejectsUnschedulable is the regression for the "hung
// submit" failure mode: a zero-weight tenant can never win pickLocked, so it
// must be impossible to create one, and an unknown tenant must be rejected
// at StartJob — synchronously, with a typed error — never queued.
func TestRegistrationRejectsUnschedulable(t *testing.T) {
	if _, err := New(Options{}, TenantConfig{Name: "z", Weight: 0}); err == nil {
		t.Fatal("zero-weight tenant registered; its submits could never be scheduled")
	}
	if _, err := New(Options{}, TenantConfig{Name: "n", Weight: -3}); err == nil {
		t.Fatal("negative-weight tenant registered")
	}
	if _, err := New(Options{}, TenantConfig{Name: "", Weight: 1}); err == nil {
		t.Fatal("empty tenant name registered")
	}
	if _, err := New(Options{}, TenantConfig{Name: "a", Weight: 1}, TenantConfig{Name: "a", Weight: 2}); err == nil {
		t.Fatal("duplicate tenant registered")
	}

	s, err := New(Options{Workers: 2}, TenantConfig{Name: "a", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan error, 1)
	go func() {
		_, err := s.StartJob("ghost")
		done <- err
	}()
	select {
	case err := <-done:
		var ae *AdmissionError
		if !errors.As(err, &ae) || !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("unknown tenant: got %v, want *AdmissionError wrapping ErrUnknownTenant", err)
		}
		if ae.RetryAfter != 0 {
			t.Fatalf("unknown tenant got RetryAfter %v; retrying cannot help", ae.RetryAfter)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("StartJob for an unknown tenant hung instead of rejecting")
	}
}

// TestJobQuotaAdmission covers MaxJobs: the quota rejects at admission with
// a Retry-After hint, and Finish releases the slot.
func TestJobQuotaAdmission(t *testing.T) {
	s, err := New(Options{Workers: 2}, TenantConfig{Name: "a", Weight: 1, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j1, err := s.StartJob("a")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.StartJob("a")
	var ae *AdmissionError
	if !errors.As(err, &ae) || !errors.Is(err, ErrOverQuota) {
		t.Fatalf("second job: got %v, want ErrOverQuota", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("over-quota rejection carries RetryAfter %v, want > 0", ae.RetryAfter)
	}
	j1.Finish()
	j2, err := s.StartJob("a")
	if err != nil {
		t.Fatalf("after Finish the slot should be free: %v", err)
	}
	j2.Finish()

	st := s.Stats()
	if st.Tenants[0].JobsAdmitted != 2 || st.Tenants[0].JobsRejected != 1 {
		t.Fatalf("admission accounting: admitted=%d rejected=%d, want 2/1",
			st.Tenants[0].JobsAdmitted, st.Tenants[0].JobsRejected)
	}
}

// TestLoadShed covers overload rejection: once the queued backlog exceeds
// ShedDepth, new jobs shed with ErrOverloaded + Retry-After.
func TestLoadShed(t *testing.T) {
	s, err := New(Options{Workers: 4, ShedDepth: 8}, TenantConfig{Name: "a", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.manual = true // no workers: the backlog stays put

	j, err := s.StartJob("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := j.(*Job).Submit(func(int) {}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.StartJob("a")
	var ae *AdmissionError
	if !errors.As(err, &ae) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded StartJob: got %v, want ErrOverloaded", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("load-shed rejection carries RetryAfter %v, want > 0", ae.RetryAfter)
	}

	// Drain manually, then admission recovers.
	for {
		s.mu.Lock()
		tk, ok := s.pick()
		s.mu.Unlock()
		if !ok {
			break
		}
		tk.run(0)
		s.taskDone(tk)
	}
	j.Finish()
	if j2, err := s.StartJob("a"); err != nil {
		t.Fatalf("after drain admission should recover: %v", err)
	} else {
		j2.Finish()
	}
}

// TestFairQueueProperties drives seeded random arrival/service sequences
// through the queue in manual mode (no worker goroutines; the test plays
// scheduler) and asserts the core invariants after every step:
//
//   - virtual-time monotonicity: the scheduler clock and every tenant clock
//     never move backwards;
//   - work conservation: pickLocked reports "no work" only when no tenant
//     is both backlogged and under its in-flight cap;
//   - quotas: in-flight never exceeds MaxInFlight, jobs never exceed
//     MaxJobs;
//   - accounting: queueDepth always equals the sum of tenant backlogs, and
//     everything drains to zero at the end.
func TestFairQueueProperties(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfgs := []TenantConfig{
				{Name: "a", Weight: 1 + rng.Intn(9), MaxInFlight: rng.Intn(4)},
				{Name: "b", Weight: 1 + rng.Intn(9), MaxInFlight: rng.Intn(4)},
				{Name: "c", Weight: 1 + rng.Intn(9), Priority: rng.Intn(2), MaxInFlight: rng.Intn(4)},
			}
			s, err := New(Options{Workers: 8, ShedDepth: -1}, cfgs...)
			if err != nil {
				t.Fatal(err)
			}
			s.manual = true

			jobs := map[string]*Job{}
			for _, cfg := range cfgs {
				sj, err := s.StartJob(cfg.Name)
				if err != nil {
					t.Fatal(err)
				}
				jobs[cfg.Name] = sj.(*Job)
			}

			var running []schedTask
			lastVclock := s.vclock
			lastVtime := map[string]float64{}

			check := func(step int) {
				s.mu.Lock()
				defer s.mu.Unlock()
				if s.vclock < lastVclock {
					t.Fatalf("step %d: scheduler vclock went backwards: %g -> %g", step, lastVclock, s.vclock)
				}
				lastVclock = s.vclock
				depth := 0
				for _, tn := range s.order {
					if tn.vtime < lastVtime[tn.cfg.Name] {
						t.Fatalf("step %d: tenant %s vtime went backwards: %g -> %g",
							step, tn.cfg.Name, lastVtime[tn.cfg.Name], tn.vtime)
					}
					lastVtime[tn.cfg.Name] = tn.vtime
					if tn.cfg.MaxInFlight > 0 && tn.inflight > tn.cfg.MaxInFlight {
						t.Fatalf("step %d: tenant %s in-flight %d exceeds cap %d",
							step, tn.cfg.Name, tn.inflight, tn.cfg.MaxInFlight)
					}
					if tn.cfg.MaxJobs > 0 && tn.jobs > tn.cfg.MaxJobs {
						t.Fatalf("step %d: tenant %s jobs %d exceeds cap %d", step, tn.cfg.Name, tn.jobs, tn.cfg.MaxJobs)
					}
					depth += tn.q.Len()
				}
				if depth != s.queueDepth {
					t.Fatalf("step %d: queueDepth %d != sum of backlogs %d", step, s.queueDepth, depth)
				}
			}

			for step := 0; step < 400; step++ {
				switch op := rng.Intn(3); {
				case op == 0 || (op == 2 && len(running) == 0): // arrival
					name := cfgs[rng.Intn(len(cfgs))].Name
					if _, err := jobs[name].Submit(func(int) {}); err != nil {
						t.Fatalf("step %d: submit: %v", step, err)
					}
				case op == 1: // dispatch
					s.mu.Lock()
					tk, ok := s.pick()
					if !ok {
						// Work conservation: refusal is only legal when
						// nothing is both backlogged and under-cap.
						for _, tn := range s.order {
							if tn.q.Len() > 0 && (tn.cfg.MaxInFlight == 0 || tn.inflight < tn.cfg.MaxInFlight) {
								s.mu.Unlock()
								t.Fatalf("step %d: pickLocked found no work, but tenant %s has %d runnable tasks",
									step, tn.cfg.Name, tn.q.Len())
							}
						}
					}
					s.mu.Unlock()
					if ok {
						tk.run(0)
						running = append(running, tk)
					}
				default: // service completion
					i := rng.Intn(len(running))
					tk := running[i]
					running[i] = running[len(running)-1]
					running = running[:len(running)-1]
					s.taskDone(tk)
				}
				check(step)
			}

			// Drain: dispatch and retire everything, then Finish all jobs.
			for {
				s.mu.Lock()
				tk, ok := s.pick()
				s.mu.Unlock()
				if !ok {
					if len(running) == 0 {
						break
					}
					tk = running[len(running)-1]
					running = running[:len(running)-1]
					s.taskDone(tk)
					continue
				}
				tk.run(0)
				s.taskDone(tk)
			}
			for _, j := range jobs {
				j.Finish()
			}
			st := s.Stats()
			if st.QueueDepth != 0 {
				t.Fatalf("after drain: queue depth %d, want 0", st.QueueDepth)
			}
			for _, ts := range st.Tenants {
				if ts.InFlight != 0 || ts.Jobs != 0 {
					t.Fatalf("after drain: tenant %s inflight=%d jobs=%d, want 0/0", ts.Name, ts.InFlight, ts.Jobs)
				}
			}
		})
	}
}

// TestInFlightCapUnderConcurrency brackets MaxInFlight with real workers
// (run under -race in CI's stress job): a tenant capped at 3 never observes
// more than 3 of its tasks executing at once, no matter how many workers
// the pool has.
func TestInFlightCapUnderConcurrency(t *testing.T) {
	const cap = 3
	s, err := New(Options{Workers: 16},
		TenantConfig{Name: "capped", Weight: 1, MaxInFlight: cap},
		TenantConfig{Name: "free", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var cur, max atomic.Int64
	track := func(int) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
	}

	cj, err := s.StartJob("capped")
	if err != nil {
		t.Fatal(err)
	}
	fj, err := s.StartJob("free")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := cj.Submit(track); err != nil {
			t.Fatal(err)
		}
		if _, err := fj.Submit(func(int) {}); err != nil {
			t.Fatal(err)
		}
	}
	cj.Finish()
	fj.Finish()

	if got := max.Load(); got > cap {
		t.Fatalf("capped tenant reached %d concurrent tasks, cap is %d", got, cap)
	}
	st := s.Stats()
	for _, ts := range st.Tenants {
		if ts.Name == "capped" && ts.InFlightHigh > cap {
			t.Fatalf("scheduler recorded in-flight high-water %d above cap %d", ts.InFlightHigh, cap)
		}
		if ts.Dispatched != 200 {
			t.Fatalf("tenant %s dispatched %d, want 200", ts.Name, ts.Dispatched)
		}
	}
}

// TestWorkConservationAndCeiling pins both sides of the pool contract with
// blocking tasks: with 4 workers and 12 runnable tasks, exactly 4 run
// concurrently — never more (worker ceiling) — and no worker sits idle
// while the queue is non-empty (work conservation).
func TestWorkConservationAndCeiling(t *testing.T) {
	const workers = 4
	s, err := New(Options{Workers: workers}, TenantConfig{Name: "a", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	release := make(chan struct{})
	var started atomic.Int64
	j, err := s.StartJob("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := j.Submit(func(int) {
			started.Add(1)
			<-release
		}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for started.Load() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers picked up blocked tasks", started.Load(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	// Give extra dispatches a chance to happen wrongly, then assert the
	// ceiling held and nobody idles beside a non-empty queue.
	time.Sleep(20 * time.Millisecond)
	if got := started.Load(); got != workers {
		t.Fatalf("%d tasks running with a %d-worker ceiling", got, workers)
	}
	st := s.Stats()
	if st.Idle != 0 {
		t.Fatalf("%d idle workers coexist with %d queued tasks", st.Idle, st.QueueDepth)
	}
	if st.Spawned > workers {
		t.Fatalf("spawned %d workers, ceiling is %d", st.Spawned, workers)
	}
	close(release)
	j.Finish()
}

// TestWeightedSharesSaturated is the acceptance-criterion fairness check: a
// 9:3:1 mix on a saturated pool must observe task shares within 15%
// (relative) of the configured weights over the all-backlogged window.
func TestWeightedSharesSaturated(t *testing.T) {
	s, err := New(Options{Workers: 4, ShedDepth: -1},
		TenantConfig{Name: "heavy", Weight: 9},
		TenantConfig{Name: "mid", Weight: 3},
		TenantConfig{Name: "light", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const perTenant = 400
	var wg sync.WaitGroup
	for _, name := range []string{"heavy", "mid", "light"} {
		j, err := s.StartJob(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perTenant; i++ {
			if _, err := j.Submit(func(int) { time.Sleep(100 * time.Microsecond) }); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() { defer wg.Done(); j.Finish() }()
	}
	wg.Wait()

	st := s.Stats()
	if st.WindowTotal < 100 {
		t.Fatalf("fairness window has only %d samples; mix never saturated", st.WindowTotal)
	}
	for _, ts := range st.Tenants {
		relErr := (ts.WindowShare - ts.FairShare) / ts.FairShare
		if relErr < 0 {
			relErr = -relErr
		}
		t.Logf("tenant %-5s weight=%d fair=%.4f observed=%.4f relerr=%.3f (window %d)",
			ts.Name, ts.Weight, ts.FairShare, ts.WindowShare, relErr, st.WindowTotal)
		if relErr > 0.15 {
			t.Errorf("tenant %s: observed share %.4f deviates %.1f%% from fair share %.4f (bound 15%%)",
				ts.Name, ts.WindowShare, relErr*100, ts.FairShare)
		}
	}
}

// TestFairnessWindowCountsWholeRounds: the window is a union of
// all-backlogged stretches, and one that ends mid-round must not keep the
// light tenant's dispatch of that round without the heavy tenant's eight
// others. Light runs dry in round 4: the window is rounds 0–3, exactly 9:1,
// without the part of round 4 taken before light ran dry.
func TestFairnessWindowCountsWholeRounds(t *testing.T) {
	s, err := New(Options{Workers: 1},
		TenantConfig{Name: "heavy", Weight: 9},
		TenantConfig{Name: "light", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.manual = true
	hj, _ := s.StartJob("heavy")
	lj, _ := s.StartJob("light")
	for i := 0; i < 60; i++ {
		hj.(*Job).Submit(func(int) {})
	}
	for i := 0; i < 5; i++ {
		lj.(*Job).Submit(func(int) {})
	}
	for {
		s.mu.Lock()
		tk, ok := s.pick()
		s.mu.Unlock()
		if !ok {
			break
		}
		s.taskDone(tk)
	}
	hj.Finish()
	lj.Finish()
	st := s.Stats()
	if st.WindowTotal != 40 {
		t.Fatalf("window holds %d dispatches, want the 40 of rounds 0-3", st.WindowTotal)
	}
	for _, ts := range st.Tenants {
		if math.Abs(ts.WindowShare-ts.FairShare) > 1e-12 {
			t.Errorf("tenant %s: window share %.4f, want exactly %.4f", ts.Name, ts.WindowShare, ts.FairShare)
		}
	}
}

// TestPriorityTiersServeHigherFirst: with the pool saturated by a
// priority-0 backlog, a priority-1 arrival is dispatched before the
// remaining priority-0 tasks.
func TestPriorityTiersServeHigherFirst(t *testing.T) {
	s, err := New(Options{Workers: 1},
		TenantConfig{Name: "batch", Weight: 9},
		TenantConfig{Name: "urgent", Weight: 1, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.manual = true

	bj, _ := s.StartJob("batch")
	uj, _ := s.StartJob("urgent")
	var order []string
	for i := 0; i < 5; i++ {
		bj.(*Job).Submit(func(int) { order = append(order, "batch") })
	}
	uj.(*Job).Submit(func(int) { order = append(order, "urgent") })
	for {
		s.mu.Lock()
		tk, ok := s.pick()
		s.mu.Unlock()
		if !ok {
			break
		}
		tk.run(0)
		s.taskDone(tk)
	}
	if len(order) != 6 || order[0] != "urgent" {
		t.Fatalf("dispatch order %v: priority-1 tenant must run first", order)
	}
	bj.Finish()
	uj.Finish()
}

// TestWorkerCeilingRegression is the DefaultThreads=1000 composition fix's
// regression: N concurrent jobs through one scheduler must run on the
// scheduler's worker ceiling, not N per-job pools — i.e. nothing remotely
// like N×1000 goroutines may exist mid-flight.
func TestWorkerCeilingRegression(t *testing.T) {
	const (
		workers = 32
		jobs    = 8
	)
	base := runtime.NumGoroutine()
	s, err := New(Options{Workers: workers, ShedDepth: -1}, TenantConfig{Name: "a", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var peak atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := int64(runtime.NumGoroutine())
			for {
				p := peak.Load()
				if g <= p || peak.CompareAndSwap(p, g) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := s.StartJob("a")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 300; i++ {
				if _, err := j.Submit(func(int) { time.Sleep(20 * time.Microsecond) }); err != nil {
					t.Error(err)
					return
				}
			}
			j.Finish()
		}()
	}
	wg.Wait()
	close(stop)

	// base + submitters + workers + monitor + generous slack, still far
	// below the jobs×DefaultThreads=8000 the per-job path would spawn.
	limit := int64(base + jobs + workers + 64)
	if p := peak.Load(); p > limit {
		t.Fatalf("peak goroutines %d exceeds %d; %d jobs must share the %d-worker pool, not spawn per-job pools",
			p, limit, jobs, workers)
	}
}

// TestCloseRejectsAndDrains: Close stops admission and parked workers exit;
// a job that raced Close has its queued tasks dropped with accounting
// settled so Finish cannot hang.
func TestCloseRejectsAndDrains(t *testing.T) {
	s, err := New(Options{Workers: 2}, TenantConfig{Name: "a", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.manual = true
	j, err := s.StartJob("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		j.(*Job).Submit(func(int) {})
	}
	s.Close()
	if _, err := s.StartJob("a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("StartJob after Close: got %v, want ErrClosed", err)
	}
	if _, err := j.(*Job).Submit(func(int) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: got %v, want ErrClosed", err)
	}
	done := make(chan struct{})
	go func() { j.Finish(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Finish hung after Close dropped the job's queued tasks")
	}
	s.Close() // idempotent
}
