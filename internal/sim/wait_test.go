package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Run this package under both timer-channel semantics: GODEBUG
// asynctimerchan=1 (buffered channels, Go before 1.23 and this module's
// default) and asynctimerchan=0 (synchronous channels, Go 1.23's).

func TestWaitFull(t *testing.T) {
	const d = 5 * time.Millisecond
	start := time.Now()
	if err := Wait(context.Background(), d); err != nil {
		t.Fatalf("a full wait returned %v", err)
	}
	if el := time.Since(start); el < d {
		t.Fatalf("a %v wait returned after %v", d, el)
	}
}

func TestWaitNonPositive(t *testing.T) {
	if err := Wait(context.Background(), 0); err != nil {
		t.Fatalf("zero wait on a live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range []time.Duration{0, -time.Second} {
		if err := Wait(ctx, d); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait(dead ctx, %v) = %v, want context.Canceled", d, err)
		}
	}
}

// TestWaitCancelledReturnsPromptly: a wait whose context ends returns its
// error at once, not when the wait would have ended.
func TestWaitCancelledReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Wait(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled ctx = %v", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if err := Wait(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait cancelled mid-way = %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancelled waits took %v", el)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := Wait(ctx, time.Hour); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait past the deadline = %v", err)
	}
}

// lateCtx is an ended context whose Done first sleeps for late: by the time
// Wait's select sees it, Wait's timer has fired too, and the select picks
// either case.
type lateCtx struct {
	context.Context
	late time.Duration
}

func (c lateCtx) Done() <-chan struct{} {
	time.Sleep(c.late)
	return c.Context.Done()
}

// TestWaitCancelledThenFull: a wait that sees its context end after its
// timer fired leaves the fire in the timer's channel under
// asynctimerchan=1. The timer goes back to the pool, so a fire Wait failed
// to drain would end the next wait on that timer at once.
func TestWaitCancelledThenFull(t *testing.T) {
	const full = 2 * time.Millisecond
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := lateCtx{Context: dead, late: time.Millisecond}
	for i := 0; i < 100; i++ {
		_ = Wait(ctx, 50*time.Microsecond)
		start := time.Now()
		if err := Wait(context.Background(), full); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < full {
			t.Fatalf("round %d: a %v wait after a cancelled one returned after %v", i, full, el)
		}
	}
}

// TestWaitConcurrent: the pool's timers pass between goroutines. Waits
// cancelled while their timers fire, beside full ones, never hand a full
// wait a stale fire.
func TestWaitConcurrent(t *testing.T) {
	const full = time.Millisecond
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if (g+i)%2 == 0 {
					_ = Wait(lateCtx{Context: dead, late: 200 * time.Microsecond}, 20*time.Microsecond)
					continue
				}
				start := time.Now()
				if err := Wait(context.Background(), full); err != nil {
					t.Error(err)
					return
				}
				if el := time.Since(start); el < full {
					t.Errorf("goroutine %d: a %v wait returned after %v", g, full, el)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWaitWarmAllocatesNothing: with its timer pooled, a wait allocates
// nothing, whether it runs out or its context ends first.
func TestWaitWarmAllocatesNothing(t *testing.T) {
	if lossyPools() {
		t.Skip("sync.Pool drops what it is given here (the race detector does, on purpose): no warm pool to measure")
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { _ = Wait(ctx, time.Microsecond) }); n != 0 {
		t.Errorf("a warm full wait: %.0f allocations, want 0", n)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	<-dead.Done()
	if n := testing.AllocsPerRun(100, func() { _ = Wait(dead, time.Hour) }); n != 0 {
		t.Errorf("a warm cancelled wait: %.0f allocations, want 0", n)
	}
}

// lossyPools reports whether sync.Pool drops what it is given.
func lossyPools() bool {
	var p sync.Pool
	for i := 0; i < 100; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// BenchmarkGateLookup is the gate hop on its own: local point lookups on
// HDDProfile gates, each through admission, a spindle and the modelled
// 400µs service. x-model is the measured time of one lookup over the model:
// what the deadline heap, its alarm and the wake-up add to a modelled I/O.
// serial is one caller on one gate; parallel is 96 callers on 4 gates, every
// spindle of each busy, so one alarm fire releases several waits; saturated
// is parallel while two goroutines per P compute in 20µs slices and yield,
// so no P ever runs out of work.
func BenchmarkGateLookup(b *testing.B) {
	m := HDDProfile()
	ctx := context.Background()
	b.Run("serial", func(b *testing.B) {
		g := NewGate(m)
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := g.Lookup(ctx, false); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(time.Since(start))/float64(b.N)/float64(m.LookupLatency), "x-model")
	})
	b.Run("parallel", func(b *testing.B) { lookupParallel(b, m) })
	b.Run("saturated", func(b *testing.B) {
		defer keepEveryPBusy()()
		lookupParallel(b, m)
	})
}

// keepEveryPBusy starts two goroutines per P that compute in 20µs slices
// and yield between them, so no P runs out of work and the run queues are
// never empty, and returns the function that stops them.
func keepEveryPBusy() (stop func()) {
	var done atomic.Bool
	var spun sync.WaitGroup
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		spun.Add(1)
		go func() {
			defer spun.Done()
			for !done.Load() {
				for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
				}
				runtime.Gosched()
			}
		}()
	}
	return func() {
		done.Store(true)
		spun.Wait()
	}
}

// lookupParallel runs b.N lookups from 96 callers on 4 gates of model m and
// reports x-model.
func lookupParallel(b *testing.B, m CostModel) {
	const nodes = 4
	ctx := context.Background()
	gates := make([]*Gate, nodes)
	for i := range gates {
		gates[i] = NewGate(m)
	}
	// Each caller times its own lookups: the mean is x-model at any b.N,
	// however the lookups fall among the callers.
	var left, total atomic.Int64
	left.Store(int64(b.N))
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < nodes*m.Spindles; c++ {
		wg.Add(1)
		go func(g *Gate) {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				start := time.Now()
				if err := g.Lookup(ctx, false); err != nil {
					b.Error(err)
					return
				}
				total.Add(int64(time.Since(start)))
			}
		}(gates[c%nodes])
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(total.Load())/float64(b.N)/float64(m.LookupLatency), "x-model")
}
