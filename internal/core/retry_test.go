package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
)

// retryHarness builds the minimal executor state derefWithRetry needs: the
// retry options and a one-stage trace to observe AddRetry through.
func retryHarness(opts Options) *executor {
	return &executor{
		opts: opts,
		tr:   trace.New("retry-test", []trace.StageInfo{{Name: "d", Kind: "deref"}}, 1),
	}
}

// TestRetryBackoffCancellationPrompt checks a job context cancelled while
// derefWithRetry sleeps its backoff aborts the sleep: the call must return
// in far less than one backoff period, without counting a retry and without
// re-invoking the Dereferencer.
func TestRetryBackoffCancellationPrompt(t *testing.T) {
	e := retryHarness(Options{MaxRetries: 5, RetryBackoff: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	tc := &TaskCtx{Ctx: ctx}
	var attempts atomic.Int64
	d := FuncDeref{Label: "always-fails", Fn: func(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
		attempts.Add(1)
		return nil, fmt.Errorf("transient glitch")
	}}

	type res struct {
		recs []lake.Record
		err  error
	}
	done := make(chan res, 1)
	start := time.Now()
	go func() {
		recs, err := e.derefWithRetry(tc, nil, 0, d, nil, []lake.Pointer{{File: "f", Key: "k"}})
		done <- res{recs, err}
	}()
	// Let the call reach its hour-long backoff sleep, then cancel the job.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("cancelled mid-backoff, returned after %v (want << backoff)", took)
		}
		if r.err == nil {
			t.Error("cancelled retry returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("derefWithRetry still sleeping its backoff after cancellation")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("dereferencer invoked %d times, want 1 (no re-attempt after cancel)", got)
	}
	if got := e.tr.Snapshot(nil).Stages[0].Retries; got != 0 {
		t.Errorf("aborted backoff counted %d retries, want 0", got)
	}
}

// TestRetryNotCountedForPermanentErrors checks AddRetry never fires for a
// permanent error: the first invocation fails fast and the trace stays at
// zero retries (a retry counter that ticks on unretryable errors would make
// the oracle's retries<=MaxRetries*ptrs invariant meaningless).
func TestRetryNotCountedForPermanentErrors(t *testing.T) {
	e := retryHarness(Options{MaxRetries: 5})
	tc := &TaskCtx{Ctx: context.Background()}
	var attempts atomic.Int64
	d := FuncDeref{Label: "perm", Fn: func(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
		attempts.Add(1)
		return nil, lake.AsPermanent(fmt.Errorf("bad pointer"))
	}}
	if _, err := e.derefWithRetry(tc, nil, 0, d, nil, []lake.Pointer{{File: "f", Key: "k"}}); err == nil {
		t.Fatal("permanent error did not surface")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("dereferencer invoked %d times, want 1", got)
	}
	if got := e.tr.Snapshot(nil).Stages[0].Retries; got != 0 {
		t.Errorf("permanent failure counted %d retries, want 0", got)
	}
}

// TestRetryCountsOnlyHealableAttempts pins the mixed case: transient
// failures count one retry per re-invocation, and the run stops counting
// the moment the error turns permanent.
func TestRetryCountsOnlyHealableAttempts(t *testing.T) {
	e := retryHarness(Options{MaxRetries: 10})
	tc := &TaskCtx{Ctx: context.Background()}
	var attempts atomic.Int64
	d := FuncDeref{Label: "mixed", Fn: func(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
		if attempts.Add(1) < 3 {
			return nil, fmt.Errorf("transient glitch")
		}
		return nil, lake.AsPermanent(fmt.Errorf("now it's gone for good"))
	}}
	if _, err := e.derefWithRetry(tc, nil, 0, d, nil, []lake.Pointer{{File: "f", Key: "k"}}); err == nil {
		t.Fatal("permanent error did not surface")
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("dereferencer invoked %d times, want 3 (2 transient + 1 permanent)", got)
	}
	if got := e.tr.Snapshot(nil).Stages[0].Retries; got != 2 {
		t.Errorf("trace counted %d retries, want 2", got)
	}
}

// TestSeedSentinelPreventsEarlyCompletion is the regression test for the
// seeding race the chaos work surfaced: with many independent seeds, a
// first seed fully processed before the second is dispatched used to drive
// the in-flight counter to zero, declare the job complete, and silently
// drop the remaining seeds' work. All seeds must contribute to the result.
func TestSeedSentinelPreventsEarlyCompletion(t *testing.T) {
	fx := newFixture(t, 1, 64, 1)
	var seeds []lake.Pointer
	for i := int64(0); i < 64; i++ {
		k := keycodec.Int64(i)
		seeds = append(seeds, lake.Pointer{File: fPart, PartKey: k, Key: k})
	}
	job, err := NewJob("all-parts", seeds, LookupDeref{File: fPart})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 64 {
			t.Fatalf("run %d: count = %d, want 64 (seeds dropped by early completion)", run, res.Count)
		}
	}
}
