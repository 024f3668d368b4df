package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// dispatcherImpls are the two implementations behind executor.dispatch. The
// shared one rides sched_seam_test.go's fakeSched (core cannot import
// internal/sched), which runs every task on a goroutine of its own.
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
			started := make(chan struct{}, 1)
			// Every task parks until the job is cancelled, then dispatches
			// one more to the next node: some of those land before finish
			// closes the door (and drain unrun), the rest after (and are
			// refused). Crossing nodes is the point — on the pools a worker
			// of one node then spawns a worker of another while finish is
			// already waiting, and finish must still wait for that one too
			// (64 threads for 64 tasks, so every pool has room to spawn).
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
			waitGoroutines(t, before)
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
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) { tc.run(t, impl.opts) })
		}
	}
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

// TestPoolDispatchAddsNoAllocation pins that the pool path allocates nothing
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
// dispatcher implementation. The shared numbers include fakeSched's
// goroutine per task; what they pin is the adapter's closure per task.
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
}
