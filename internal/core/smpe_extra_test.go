package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/chaos"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

func TestStageEmitsCounts(t *testing.T) {
	fx := newFixture(t, 2, 10, 3)
	job := fx.joinJob(0, 1000, false)
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StageEmits) != len(job.Stages) {
		t.Fatalf("StageEmits has %d entries", len(res.StageEmits))
	}
	// Stage 0 (price-index range) emits one entry per part.
	if res.StageEmits[0] != int64(fx.nParts) {
		t.Errorf("stage 0 emits = %d, want %d", res.StageEmits[0], fx.nParts)
	}
	// Referencer stage 1 emits one pointer per index entry, even inlined.
	if res.StageEmits[1] != int64(fx.nParts) {
		t.Errorf("stage 1 emits = %d, want %d", res.StageEmits[1], fx.nParts)
	}
	// Final stage emits the join result.
	if got := res.StageEmits[len(res.StageEmits)-1]; got != res.Count {
		t.Errorf("final stage emits %d != count %d", got, res.Count)
	}
}

func TestDefaultThreadsApplied(t *testing.T) {
	fx := newFixture(t, 1, 5, 1)
	job := fx.joinJob(0, 1000, false)
	// Options zero value must select the paper's default pool and work.
	res, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{InlineReferencers: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != fx.expectedJoinCount(0, 1000) {
		t.Fatalf("count = %d", res.Count)
	}
}

// TestLargeFanoutStress pushes tens of thousands of fine-grained tasks
// through the executor on a free cost model: no deadlocks, exact counts.
func TestLargeFanoutStress(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 4})
	f, err := c.CreateFile("wide", dfs.Btree, 8, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 30000
	for i := int64(0); i < rows; i++ {
		k := keycodec.Int64(i)
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Fan out: scan everything, then point-fetch each record again.
	job, err := NewJob("stress",
		[]lake.Pointer{{File: "wide", NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(rows)}},
		RangeDeref{File: "wide"},
		FuncRef{Label: "self", Fn: func(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
			return []lake.Pointer{{File: "wide", PartKey: rec.Key, Key: rec.Key}}, nil
		}},
		LookupDeref{File: "wide"},
	)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := ExecuteSMPE(ctx, job, c, c, Options{Threads: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != rows {
		t.Fatalf("stress count = %d, want %d", res.Count, rows)
	}
	if res.StageEmits[2] != rows {
		t.Fatalf("stress final-stage emits = %d, want %d", res.StageEmits[2], rows)
	}
	// Batching coalesces the fan-out into fewer tasks, but every pointer
	// must still arrive exactly once.
	st := res.Trace.Stages[2]
	if st.BatchedPtrs != rows {
		t.Fatalf("stress final-stage batched pointers = %d, want %d", st.BatchedPtrs, rows)
	}
	if st.Batches != res.StageTasks[2] {
		t.Fatalf("stress final-stage batches = %d, tasks = %d; want equal", st.Batches, res.StageTasks[2])
	}
	if res.StageTasks[2] >= rows {
		t.Fatalf("stress final-stage tasks = %d, want < %d (batching should coalesce)", res.StageTasks[2], rows)
	}
	t.Logf("30k-task stress in %v", time.Since(start))
}

func TestCancellationDuringSimulatedIO(t *testing.T) {
	// Workers are parked inside simulated I/O sleeps; cancellation must
	// tear the job down promptly anyway.
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2, Cost: sim.CostModel{
		LookupLatency: 30 * time.Second, // far beyond the test budget
		Spindles:      4,
	}})
	f, _ := c.CreateFile("slow", dfs.Btree, 2, lake.HashPartitioner{})
	for i := int64(0); i < 100; i++ {
		k := keycodec.Int64(i)
		dfs.AppendRouted(ctx, f, k, lake.Record{Key: k})
	}
	cctx, cancel := context.WithCancel(ctx)
	job, _ := NewJob("slow-job",
		[]lake.Pointer{{File: "slow", NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(100)}},
		RangeDeref{File: "slow"},
	)
	done := make(chan error, 1)
	go func() {
		_, err := ExecuteSMPE(cctx, job, c, c, Options{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled job returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not interrupt simulated I/O")
	}
}

func TestManyNodes(t *testing.T) {
	fx := newFixture(t, 16, 40, 2)
	job := fx.joinJob(0, 1000, false)
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	if want := fx.expectedJoinCount(0, 1000); res.Count != want {
		t.Fatalf("16-node count = %d, want %d", res.Count, want)
	}
}

func TestLazyPoolSpawnsFewWorkersForTinyJobs(t *testing.T) {
	fx := newFixture(t, 2, 3, 1)
	job := fx.joinJob(0, 0, false) // matches one part at most
	res, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 1000, InlineReferencers: true})
	if err != nil {
		t.Fatal(err)
	}
	// The result matters (correctness); the observable proxy for lazy
	// spawning is that the tiny job completes instantly even with a
	// 1000-thread cap.
	if res.Elapsed > 2*time.Second {
		t.Errorf("tiny job took %v; lazy pool spawn broken?", res.Elapsed)
	}
}

func BenchmarkSMPEThroughput(b *testing.B) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 4})
	f, _ := c.CreateFile("t", dfs.Btree, 8, lake.HashPartitioner{})
	const rows = 10000
	for i := int64(0); i < rows; i++ {
		k := keycodec.Int64(i)
		dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte("x")})
	}
	job, _ := NewJob("bench",
		[]lake.Pointer{{File: "t", NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(rows)}},
		RangeDeref{File: "t"},
		FuncRef{Label: "self", Fn: func(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
			return []lake.Pointer{{File: "t", PartKey: rec.Key, Key: rec.Key}}, nil
		}},
		LookupDeref{File: "t"},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ExecuteSMPE(ctx, job, c, c, Options{Threads: 128})
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != rows {
			b.Fatalf("count = %d", res.Count)
		}
	}
	b.ReportMetric(float64(rows), "tasks/op")
}

func BenchmarkQueue(b *testing.B) {
	var mu sync.Mutex
	var q FIFO[task]
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			q.Push(task{stage: 1})
			q.Pop()
			mu.Unlock()
		}
	})
}

func TestRetryHealsTransientFaults(t *testing.T) {
	fx := newFixture(t, 2, 10, 2)
	// Every partition of lineitem fails its accesses for a long while. The
	// budget must outlive the batch-split fallback: a batched access
	// consumes one heal unit per key (fault-injection parity with the
	// unbatched path), so a tiny budget would be exhausted by the failed
	// batch itself and the per-pointer split would then succeed with no
	// retries configured at all.
	lif, _ := fx.cluster.File(fLine)
	arm := func(heals int) *chaos.Armed {
		s := &chaos.Schedule{}
		for p := 0; p < lif.NumPartitions(); p++ {
			s.Faults = append(s.Faults, chaos.Fault{File: fLine, Partition: p, Heals: heals})
		}
		armed, err := s.Arm(fx.cluster)
		if err != nil {
			t.Fatal(err)
		}
		return armed
	}
	long := arm(1000)
	job := fx.joinJob(0, 1000, false)
	// Without retries the job fails.
	if _, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{}); err == nil {
		t.Fatal("transient faults without retries should fail the job")
	}
	// Reset the faults (the failed run consumed an unknown share).
	long.Disarm()
	defer arm(2).Disarm()
	// With retries the job completes with the exact result.
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{MaxRetries: 3})
	if err != nil {
		t.Fatalf("retries did not heal transient faults: %v", err)
	}
	if want := fx.expectedJoinCount(0, 1000); res.Count != want {
		t.Fatalf("count after retries = %d, want %d", res.Count, want)
	}
}

func TestRetryDoesNotMaskPermanentFaults(t *testing.T) {
	fx := newFixture(t, 2, 5, 2)
	boom := fmt.Errorf("dead disk")
	fx.fault(fLine, 0, boom)
	job := fx.joinJob(0, 1000, false)
	if _, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{MaxRetries: 2}); err == nil {
		t.Fatal("permanent fault must still fail after retries")
	}
}
