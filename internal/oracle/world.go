package oracle

import (
	"context"
	"fmt"
	"time"

	"lakeharbor/internal/chaos"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/sched"
	"lakeharbor/internal/script"
	"lakeharbor/internal/trace"
)

// mutation plants one deliberate bug in the worlds the points assemble, so
// the vacuity table can demand that exactly the right points catch it. The
// zero value plants nothing; only tests set mutate.
type mutation struct {
	source func(src string) string               // rewrites the mirror script before it compiles
	spec   func(*indexer.Spec)                   // rewrites a structure's Spec before it is registered
	noTail bool                                  // recovers from the snapshot without the WAL tail
	skip   func(file string, partition int) bool // partitions the net mirror leaves out
}

var mutate mutation

// runTimeout bounds one point's jobs; a job not done by then is a starvation
// or lost-task failure, not a hung oracle.
const runTimeout = 60 * time.Second

// outcome is what one point's run reports upward.
type outcome struct {
	desc  string
	fails []string
	// emits is the first successful job's per-stage emit counts.
	emits []int64
	// trace is the last failing job's trace, else the first job's.
	trace *trace.Snapshot
	// schedule is the fault schedule armed at faults=on.
	schedule *chaos.Schedule
	// fired counts the key accesses the armed schedule failed.
	fired int64
	// hedges and leaks are the net plane's transport stats.
	hedges, leaks int64
}

// world is one point's assembled configuration: the generated scenario and
// whatever the axis steps put in place of its cluster, job and dispatch.
type world struct {
	*scenario
	p       Point
	cluster *dfs.Cluster // the cluster the job runs on
	job     *core.Job
	prog    *script.Program
	retries int
	sched   *sched.Scheduler
	tenants []string // one job per entry; "" is untenanted
	net     *netPlane
	out     outcome
	// closers release what the steps opened, last opened first.
	closers []func()
}

func (w *world) fail(format string, args ...any) {
	w.out.fails = append(w.out.fails, fmt.Sprintf(format, args...))
}

// runPoint generates the seed's scenario, assembles point p's world from it
// in the fixed step order, runs the job and checks it. refEmits are the
// reference point's per-stage emits (nil for the reference itself);
// schedule, when non-nil, replaces the seed's compiled fault schedule at
// faults=on. The error is a harness failure; divergences are in the
// outcome.
func runPoint(ctx context.Context, seed int64, p Point, refEmits []int64, schedule *chaos.Schedule) (*outcome, error) {
	// Cancelled on return: it stops the point's managers and any job the
	// run step gave up on.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sc, err := generate(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: seed %d: generate: %w", seed, err)
	}
	w := &world{scenario: sc, p: p, cluster: sc.cluster, job: sc.job, out: outcome{desc: sc.desc, schedule: schedule}}
	for _, step := range []struct {
		name string
		run  func(context.Context) error
	}{{"structures", w.structures}, {"plane", w.plane}, {"functions", w.functions}, {"faults", w.faults}, {"dispatch", w.dispatch}} {
		if err = step.run(ctx); err != nil {
			w.fail("%s step: %v", step.name, err)
			break
		}
	}
	if err == nil {
		w.run(ctx, refEmits)
	}
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	if w.net != nil {
		w.net.account(w)
	}
	return &w.out, nil
}

// faults arms the seed's chaos schedule on the point's cluster — the sim,
// or at plane=net the front end over the nodes' clients. The retry budget
// is sized to out-wait it, so a correct executor still returns the exact
// answer.
func (w *world) faults(context.Context) error {
	if w.p.is(faults, "off") {
		return nil
	}
	if w.out.schedule == nil {
		w.out.schedule = chaos.Compile(w.seed, w.target, chaos.DefaultProfile())
	}
	armed, err := w.out.schedule.Arm(w.cluster)
	if err != nil {
		return fmt.Errorf("arming: %w", err)
	}
	w.closers = append(w.closers, func() {
		armed.Disarm()
		w.out.fired = armed.Fired()
	})
	w.retries = w.out.schedule.TotalHeals() + 2
	return nil
}

// run executes the job once per tenant — concurrently, on the assembled
// cluster — and checks every result.
func (w *world) run(ctx context.Context, refEmits []int64) {
	opts := core.Options{Threads: w.threads, MaxBatch: w.maxBatch, KeepRecords: true, MaxRetries: w.retries}
	if w.p.is(batch, "1") {
		opts.MaxBatch = 1
	}
	if w.retries > 0 {
		opts.RetryBackoff = 50 * time.Microsecond
	}
	if w.sched != nil {
		opts.Scheduler = w.sched
	}
	type result struct {
		tenant string
		res    *core.Result
		err    error
	}
	results := make(chan result, len(w.tenants))
	for _, tenant := range w.tenants {
		opts := opts
		opts.Tenant = tenant
		go func() {
			res, err := core.ExecuteSMPE(ctx, w.job, w.cluster, w.cluster, opts)
			results <- result{tenant, res, err}
		}()
	}
	timeout := time.After(runTimeout)
	for done := 0; done < len(w.tenants); done++ {
		select {
		case r := <-results:
			w.check(r.tenant, r.res, r.err, refEmits)
		case <-timeout:
			w.fail("starvation: %d of %d jobs still running after %v", len(w.tenants)-done, len(w.tenants), runTimeout)
			return
		case <-ctx.Done():
			w.fail("context: %v", ctx.Err())
			return
		}
	}
	if w.sched != nil {
		w.checkShares()
	}
}

// check runs the one check set on a job's result: the multiset and trace
// invariants, the tenant attribution, per-stage emits equal to the
// reference point's, and at net the node-side attribution.
func (w *world) check(tenant string, res *core.Result, err error, refEmits []int64) {
	label := "job"
	if tenant != "" {
		label = "tenant " + tenant
	}
	fails := checkRun(label, w.scenario, res, err, w.retries)
	if err == nil {
		if res.Trace.Tenant != tenant {
			fails = append(fails, fmt.Sprintf("%s: trace attributed to %q", label, res.Trace.Tenant))
		}
		for i := range refEmits {
			if res.StageEmits[i] != refEmits[i] {
				fails = append(fails, fmt.Sprintf("%s: stage %d emits %d vs %d at the reference point",
					label, i, res.StageEmits[i], refEmits[i]))
			}
		}
		if w.net != nil {
			fails = append(fails, w.net.checkAttribution(label, w.job.Name, res)...)
		}
		if w.out.emits == nil {
			w.out.emits = res.StageEmits
		}
	}
	if res != nil && (w.out.trace == nil || len(fails) > 0) {
		w.out.trace = res.Trace
	}
	w.out.fails = append(w.out.fails, fails...)
}
