package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lakeharbor/internal/lake"
)

// TestJobFixedCostBudget pins what one whole job costs beyond its records,
// with warm pools: BenchmarkDispatch/job's Execute allocates at most
// jobAllocs objects and jobBytes bytes. A job's trace (histograms, counters,
// event ring — about 40 KiB), its per-node queue arrays and its batches' key
// lists are lent; any of them allocated again breaks the budget.
func TestJobFixedCostBudget(t *testing.T) {
	if lossyPools() {
		t.Skip("sync.Pool drops what it is given here (the race detector does, on purpose): no warm pool to measure")
	}
	const jobAllocs, jobBytes = 76, 8 << 10
	run := pingJob(t)
	for i := 0; i < 10; i++ {
		run() // warm the standing workers and every pool
	}
	allocs := testing.AllocsPerRun(200, run)
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one job: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > jobAllocs {
		t.Errorf("one job allocates %.0f times, budget %d", allocs, jobAllocs)
	}
	if bytes > jobBytes {
		t.Errorf("one job allocates %d bytes, budget %d", bytes, jobBytes)
	}

	// A job's queues on their own, exactly: a warm job that runs eight tasks
	// through one node's queue allocates its list of per-node queues and that
	// list's header boxed as the dispatcher, nothing else — each queue's array
	// is lent.
	r := newDispatchRig(t, Options{Threads: 1, EventCap: -1}, 4, func(*dispatchRig, *TaskCtx, lake.Pointer) {})
	r.e.disp.finish()
	ptrs := []lake.Pointer{{File: "f", Key: "k"}} // the tasks' own pointer slice
	queues := math.Inf(1)
	for try := 0; try < 5; try++ { // the least of five: a worker's wake-up can allocate in the runtime
		queues = min(queues, testing.AllocsPerRun(50, func() {
			j := newStandingJob(r.e)
			r.e.disp = j
			for i := 0; i < 8; i++ {
				r.e.dispatch(0, task{ptrs: ptrs})
			}
			j.finish()
		}))
	}
	if queues != 2 {
		t.Errorf("a job's queues, eight tasks through one of them: %.0f allocations, want 2 (the list and its header)", queues)
	}
}

// TestLentTracesStayPerJob: 32 jobs of different sizes run at once over four
// nodes, on each dispatcher, each on a trace some earlier job gave back. Each
// must report exactly the per-stage Tasks and Emits it reports alone — no
// count of another job's, and none left over from a trace's earlier loan.
func TestLentTracesStayPerJob(t *testing.T) {
	fx := newFixture(t, 4, 60, 2)
	const jobs = 32
	job := func(i int) *Job { return fx.joinJob(int64(i*7), int64(i*7+40+i*9), i%3 == 0) }
	for _, impl := range dispatcherImpls {
		opts := impl.opts(8)
		opts.EventCap = 0
		want := make([][]int64, jobs)
		for i := range want {
			res, err := ExecuteSMPE(fx.ctx, job(i), fx.cluster, fx.cluster, opts)
			if err != nil {
				t.Fatalf("%s: job %d alone: %v", impl.name, i, err)
			}
			want[i] = append(res.StageTasks, res.StageEmits...)
		}
		var wg sync.WaitGroup
		errs := make(chan error, jobs)
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := ExecuteSMPE(fx.ctx, job(i), fx.cluster, fx.cluster, opts)
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				var got []int64
				for _, st := range res.Trace.Stages {
					got = append(got, st.Tasks)
				}
				for _, st := range res.Trace.Stages {
					got = append(got, st.Emits)
				}
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					errs <- fmt.Errorf("job %d: tasks then emits per stage %v, alone %v", i, got, want[i])
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", impl.name, err)
		}
	}
}

// TestEarlyTraceReleaseFailsLoudly is the trace loan's vacuity check on a
// direct job: with Execute planted to release the trace before its
// dispatcher finishes, the job's next use of it panics and names the bug.
func TestEarlyTraceReleaseFailsLoudly(t *testing.T) {
	SetFailpoint(FailpointEarlyTraceRelease, true)
	t.Cleanup(func() { SetFailpoint(FailpointEarlyTraceRelease, false) })
	run := pingJob(t)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Trace used after Release") {
			t.Fatalf("the planted early release did not fail loudly: recovered %q", msg)
		}
	}()
	run()
}

// TestReleasedKeyListIsPoisoned: in a test binary a released key list holds
// the poison string wherever it held a key, and a released ends list -1, so a
// BatchFile that kept either past its call reads what no storage holds.
func TestReleasedKeyListIsPoisoned(t *testing.T) {
	keys, ends := keyBufs.get(), endBufs.get()
	keys.s = append(keys.s, "k0", "k1", "k2")
	ends.s = append(ends.s, 1, 2, 3)
	keptKeys, keptEnds := keys.s, ends.s
	keys.release()
	ends.release()
	for i := range keptKeys {
		if keptKeys[i] != keyBufs.poison || keptEnds[i] != -1 {
			t.Fatalf("slot %d after release: key %q, end %d; want the poison", i, keptKeys[i], keptEnds[i])
		}
	}
}
