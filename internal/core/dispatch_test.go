package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// dispatcherImpls are the two adapters behind executor.dispatch: "pool", the
// job's queues in the standing per-node sets, and "shared", which rides
// sched_seam_test.go's fakeSched (core cannot import internal/sched) and runs
// every task on a goroutine of its own.
var dispatcherImpls = []struct {
	name string
	opts func(threads int) Options
}{
	{"pool", func(threads int) Options { return Options{Threads: threads, EventCap: -1} }},
	{"shared", func(int) Options { return Options{Tenant: "acme", Scheduler: &fakeSched{}, EventCap: -1} }},
}

// dispatchRig is an executor, built the way Execute builds it, for a job of
// one Dereferencer stage that calls fn — so a test drives executor.dispatch
// and the dispatcher directly and sees exactly which tasks ran.
type dispatchRig struct {
	e      *executor
	cancel context.CancelFunc
}

func newDispatchRig(tb testing.TB, opts Options, nodes int, fn func(r *dispatchRig, tc *TaskCtx, ptr lake.Pointer)) *dispatchRig {
	tb.Helper()
	opts, err := opts.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	r := &dispatchRig{}
	job := &Job{Name: "dispatch", Stages: []Stage{{Deref: FuncDeref{Fn: func(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
		fn(r, tc, ptr)
		return nil, nil
	}}}}}
	c := dfs.NewCluster(dfs.Config{Nodes: nodes})
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	if r.e, err = newExecutor(ctx, cancel, job, c, c, opts); err != nil {
		tb.Fatal(err)
	}
	r.cancel = cancel
	r.e.inflight.Add(1) // Execute's seeding sentinel: the job is not over until release
	return r
}

func (r *dispatchRig) dispatch(node int, key string) {
	r.e.dispatch(node, task{ptrs: []lake.Pointer{{File: "f", Key: lake.Key(key)}}})
}

// release drops the sentinel and waits for every dispatched task to finish.
func (r *dispatchRig) release(t *testing.T) {
	t.Helper()
	r.e.finishN(1)
	select {
	case <-r.e.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job never completed: %d in flight", r.e.inflight.Load())
	}
}

// settled checks what must hold once finish has returned, however the job
// ended: nothing in flight (no "task accounting leak") and, unless the test
// failed the job itself, no error.
func (r *dispatchRig) settled(t *testing.T, wantErr bool) {
	t.Helper()
	if n := r.e.inflight.Load(); n != 0 {
		t.Errorf("%d in flight after finish, want 0", n)
	}
	if err := r.e.firstErr(); (err != nil) != wantErr {
		t.Errorf("job error = %v, want error: %v", err, wantErr)
	}
}

// coldNodes gives the test standing sets of its own, so worker counts start
// from zero, and closes them when it ends. Tests in this package never run in
// parallel, so swapping the process-wide sets is safe.
func coldNodes(tb testing.TB) {
	standing.Lock()
	warm := standing.sets
	standing.sets = nil
	standing.Unlock()
	tb.Cleanup(func() {
		standing.Lock()
		cold := standing.sets
		standing.sets = warm
		standing.Unlock()
		for _, s := range cold {
			s.w.Close()
		}
	})
}

// standingLive counts the workers of every standing set.
func standingLive() int {
	standing.Lock()
	defer standing.Unlock()
	n := 0
	for _, s := range standing.sets {
		s.mu.Lock()
		n += s.w.Live()
		s.mu.Unlock()
	}
	return n
}

// waitGoroutines polls until the goroutine count is back down to limit — the
// count before the jobs ran, plus whatever slack the caller allows.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= limit {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d running, want at most %d", after, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDispatcherContract is the contract executor.dispatch and both
// dispatcher implementations keep, stated once and run against each.
func TestDispatcherContract(t *testing.T) {
	const nodes = 3
	cases := []struct {
		name     string
		poolOnly bool // Threads is the pools' knob; a scheduler's capacity is its own
		run      func(t *testing.T, opts func(threads int) Options)
	}{
		{name: "every accepted task runs exactly once", run: func(t *testing.T, opts func(int) Options) {
			// 60 tasks dispatched from outside, each dispatching three more
			// from the worker that runs it, onto the next node.
			var mu sync.Mutex
			ran := map[lake.Key]int{}
			r := newDispatchRig(t, opts(8), nodes, func(r *dispatchRig, tc *TaskCtx, ptr lake.Pointer) {
				mu.Lock()
				ran[ptr.Key]++
				mu.Unlock()
				if len(ptr.Key) < 4 { // a root: "r07"
					for c := 0; c < 3; c++ {
						r.dispatch((tc.Node+1)%nodes, fmt.Sprintf("%s/%d", ptr.Key, c))
					}
				}
			})
			for i := 0; i < 60; i++ {
				r.dispatch(i%nodes, fmt.Sprintf("r%02d", i))
			}
			r.release(t)
			r.e.disp.finish()
			r.settled(t, false)
			if len(ran) != 60*4 {
				t.Errorf("%d distinct tasks ran, want %d", len(ran), 60*4)
			}
			for k, n := range ran {
				if n != 1 {
					t.Errorf("task %q ran %d times", k, n)
				}
			}
		}},
		{name: "a submit after finish is refused and gives its weight back", run: func(t *testing.T, opts func(int) Options) {
			var ran atomic.Int64
			r := newDispatchRig(t, opts(8), nodes, func(*dispatchRig, *TaskCtx, lake.Pointer) { ran.Add(1) })
			r.dispatch(0, "before")
			r.release(t)
			r.e.disp.finish()
			for node := 0; node < nodes; node++ {
				r.dispatch(node, "straggler")
			}
			if _, err := r.e.disp.submit(0, task{}); err != errJobOver {
				t.Errorf("submit after finish: err = %v, want errJobOver", err)
			}
			r.settled(t, false) // a straggler is dropped silently, not a job failure
			if n := ran.Load(); n != 1 {
				t.Errorf("%d tasks ran, want only the one dispatched before finish", n)
			}
		}},
		{name: "a cancelled job drains and leaves no goroutine", run: func(t *testing.T, opts func(int) Options) {
			runtime.GC()
			before := runtime.NumGoroutine()
			// Twice: the second job runs on the workers the first left
			// parked, and neither leaves a goroutine beyond the standing
			// sets' workers (none at all on the shared adapter).
			for run := 0; run < 2; run++ {
				started := make(chan struct{}, 1)
				// Every task parks until the job is cancelled, then
				// dispatches one more to the next node: some of those land
				// before finish closes the door (and drain unrun), the rest
				// after (and are refused). Crossing nodes is the point — a
				// worker of one node then queues onto another while finish
				// is already waiting, and finish must still wait for that
				// task too (64 threads for 64 tasks, so every node has room
				// to start workers).
				r := newDispatchRig(t, opts(64), nodes, func(r *dispatchRig, tc *TaskCtx, ptr lake.Pointer) {
					select {
					case started <- struct{}{}:
					default:
					}
					<-tc.Ctx.Done()
					r.dispatch((tc.Node+1)%nodes, "late")
				})
				for i := 0; i < 64; i++ {
					r.dispatch(i%nodes, "parked")
				}
				<-started
				r.e.finishN(1)
				r.cancel()
				r.e.fail(context.Canceled)
				r.e.disp.finish()
				r.settled(t, true)
				waitGoroutines(t, before+standingLive())
			}
		}},
		{name: "Threads 1 never runs two tasks of one node at once", poolOnly: true, run: func(t *testing.T, opts func(int) Options) {
			var running [nodes]atomic.Int32
			var overlaps atomic.Int64
			r := newDispatchRig(t, opts(1), nodes, func(_ *dispatchRig, tc *TaskCtx, _ lake.Pointer) {
				if running[tc.Node].Add(1) > 1 {
					overlaps.Add(1)
				}
				runtime.Gosched()
				running[tc.Node].Add(-1)
			})
			for i := 0; i < 300; i++ {
				r.dispatch(i%nodes, "t")
			}
			r.release(t)
			r.e.disp.finish()
			r.settled(t, false)
			if n := overlaps.Load(); n != 0 {
				t.Errorf("%d tasks overlapped another task of their node", n)
			}
			for node := 0; node < nodes; node++ {
				if w := r.e.tr.Snapshot(nil).Nodes[node].WorkersSpawned; w != 1 {
					t.Errorf("node %d spawned %d workers, want 1", node, w)
				}
			}
		}},
	}
	for _, impl := range dispatcherImpls {
		for _, tc := range cases {
			if tc.poolOnly && impl.name != "pool" {
				continue
			}
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				coldNodes(t)
				tc.run(t, impl.opts)
			})
		}
	}
}

// blockUntil is a task body that parks until release is closed, counting
// how many tasks are parked in it.
func blockUntil(release chan struct{}, parked *atomic.Int64) func(*dispatchRig, *TaskCtx, lake.Pointer) {
	return func(*dispatchRig, *TaskCtx, lake.Pointer) {
		parked.Add(1)
		<-release
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestStandingWarmNodeSpawnsNothing: a job that needs eight workers per node
// starts them on cold nodes; an identical second job wakes the eight parked
// ones, starts none, and leaves the goroutine count where it was.
func TestStandingWarmNodeSpawnsNothing(t *testing.T) {
	const nodes, perNode = 2, 8
	coldNodes(t)
	var after int
	for run := 0; run < 2; run++ {
		release := make(chan struct{})
		var parked atomic.Int64
		r := newDispatchRig(t, Options{Threads: perNode, EventCap: -1}, nodes, blockUntil(release, &parked))
		for i := 0; i < nodes*perNode; i++ {
			r.dispatch(i%nodes, "t")
		}
		// All sixteen run at once, so each node needs all eight of its workers.
		waitFor(t, "every task to start", func() bool { return parked.Load() == nodes*perNode })
		close(release)
		r.release(t)
		r.e.disp.finish()
		r.settled(t, false)
		want := int64(perNode)
		if run == 1 {
			want = 0
		}
		for _, n := range r.e.tr.Snapshot(nil).Nodes {
			if n.WorkersSpawned != want {
				t.Errorf("run %d: node %d started %d workers, want %d", run, n.Node, n.WorkersSpawned, want)
			}
		}
		if run == 0 {
			runtime.GC()
			after = runtime.NumGoroutine()
		}
	}
	waitGoroutines(t, after)
}

// TestStandingJobsShareANode: two jobs with Threads 1 on one node. Neither
// ever runs two of its tasks at once, and the one blocked at its cap does not
// hold up the other, which completes while the first is still blocked.
func TestStandingJobsShareANode(t *testing.T) {
	coldNodes(t)
	var running [2]atomic.Int32
	var overlaps atomic.Int64
	body := func(job int, release chan struct{}) func(*dispatchRig, *TaskCtx, lake.Pointer) {
		return func(_ *dispatchRig, _ *TaskCtx, ptr lake.Pointer) {
			if running[job].Add(1) > 1 {
				overlaps.Add(1)
			}
			if ptr.Key == "block" {
				<-release
			}
			runtime.Gosched()
			running[job].Add(-1)
		}
	}
	release := make(chan struct{})
	blocked := newDispatchRig(t, Options{Threads: 1, EventCap: -1}, 1, body(0, release))
	other := newDispatchRig(t, Options{Threads: 1, EventCap: -1}, 1, body(1, nil))
	blocked.dispatch(0, "block")
	waitFor(t, "the blocking task to start", func() bool { return running[0].Load() == 1 })
	for i := 0; i < 50; i++ {
		blocked.dispatch(0, "queued")
		other.dispatch(0, "free")
	}
	other.release(t) // fails the test if the other job stalls behind the blocked one
	other.e.disp.finish()
	other.settled(t, false)
	close(release)
	blocked.release(t)
	blocked.e.disp.finish()
	blocked.settled(t, false)
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d tasks overlapped another task of their own job", n)
	}
}

// TestStandingHugeThreads: Threads is outside input (?threads=). Two jobs
// with Threads math.MaxInt on one cold node must still start a worker — their
// limits added up must not overflow into a ceiling no node is below.
func TestStandingHugeThreads(t *testing.T) {
	coldNodes(t)
	noop := func(*dispatchRig, *TaskCtx, lake.Pointer) {}
	a := newDispatchRig(t, Options{Threads: math.MaxInt, EventCap: -1}, 1, noop)
	b := newDispatchRig(t, Options{Threads: math.MaxInt, EventCap: -1}, 1, noop)
	for _, r := range []*dispatchRig{a, b} {
		r.dispatch(0, "t")
		r.release(t) // fails the test if the task never runs
		r.e.disp.finish()
		r.settled(t, false)
	}
}

// TestStandingRetainsDefaultThreads: a job with Threads 3000 and 3000 tasks
// that block until released starts 3000 workers; afterwards the node keeps
// exactly DefaultThreads of them parked and the rest exit.
func TestStandingRetainsDefaultThreads(t *testing.T) {
	const tasks = 3000
	coldNodes(t)
	runtime.GC()
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	var parked atomic.Int64
	r := newDispatchRig(t, Options{Threads: tasks, EventCap: -1}, 1, blockUntil(release, &parked))
	for i := 0; i < tasks; i++ {
		r.dispatch(0, "t")
	}
	waitFor(t, "every task to start", func() bool { return parked.Load() == tasks })
	close(release)
	r.release(t)
	r.e.disp.finish()
	r.settled(t, false)
	if n := r.e.tr.Snapshot(nil).Nodes[0].WorkersSpawned; n != tasks {
		t.Errorf("started %d workers, want %d", n, tasks)
	}
	s := r.e.disp.(standingJob)[0].set
	waitFor(t, "the surplus workers to exit", func() bool { return standingLive() == DefaultThreads })
	s.mu.Lock()
	idle := s.w.Parked()
	s.mu.Unlock()
	if idle != DefaultThreads {
		t.Errorf("%d parked workers, want %d", idle, DefaultThreads)
	}
	waitGoroutines(t, before+DefaultThreads)
}

// pingRig is a one-node rig whose tasks do nothing but report that they ran,
// and the function that dispatches one single-pointer task and waits for it.
func pingRig(tb testing.TB, opts Options) func() {
	ran := make(chan struct{}, 1)
	r := newDispatchRig(tb, opts, 1, func(*dispatchRig, *TaskCtx, lake.Pointer) { ran <- struct{}{} })
	tb.Cleanup(r.e.disp.finish)
	ptrs := []lake.Pointer{{File: "f", Key: "k"}} // the task's own pointer slice
	return func() {
		r.e.dispatch(0, task{ptrs: ptrs})
		<-ran
	}
}

// TestPoolDispatchAddsNoAllocation pins that the standing path allocates nothing
// per dispatched task beyond the task's own pointer slice: queue entries are
// task values and a worker reads them in place. It is the guard that the one
// dispatch path never quietly turns pool tasks into closures — five of the
// six lakebench workloads run this path, hundreds of tasks per job.
func TestPoolDispatchAddsNoAllocation(t *testing.T) {
	ping := pingRig(t, dispatcherImpls[0].opts(1)) // one worker: nothing to spawn after the warm-up run
	if got := testing.AllocsPerRun(500, ping); got != 0 {
		t.Errorf("pool dispatch + run of one task: %v allocs, want 0", got)
	}
}

// BenchmarkDispatch is the "sched submit → core dispatch" hop on its own:
// dispatch one no-op single-pointer task and wait for it to run, on each
// dispatcher adapter. The shared numbers include fakeSched's goroutine per
// task; what they pin is the adapter's closure per task. "job" is one whole
// Execute of a one-seed job of two dereference stages on a four-node
// zero-cost cluster: what a job pays to set up, reach the workers and let
// go of them.
func BenchmarkDispatch(b *testing.B) {
	for _, impl := range dispatcherImpls {
		b.Run(impl.name, func(b *testing.B) {
			ping := pingRig(b, impl.opts(1))
			ping()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ping()
			}
		})
	}
	b.Run("job", func(b *testing.B) {
		ctx := context.Background()
		c := dfs.NewCluster(dfs.Config{Nodes: 4})
		f, err := c.CreateFile("t", dfs.Btree, 8, lake.HashPartitioner{})
		if err != nil {
			b.Fatal(err)
		}
		k := keycodec.Int64(1)
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte("x")}); err != nil {
			b.Fatal(err)
		}
		job, err := NewJob("ping", []lake.Pointer{{File: "t", PartKey: k, Key: k}},
			LookupDeref{File: "t"},
			FuncRef{Label: "self", Fn: func(_ *TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
				return []lake.Pointer{{File: "t", PartKey: rec.Key, Key: rec.Key}}, nil
			}},
			LookupDeref{File: "t"},
		)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := ExecuteSMPE(ctx, job, c, c, Options{}); err != nil || res.Count != 1 {
				b.Fatalf("count = %v, err = %v", res, err)
			}
		}
	})
}
