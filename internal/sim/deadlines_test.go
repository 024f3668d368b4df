package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// eachAlarm runs f on a fresh deadline heap over each alarm: the runtime
// timer, and the precise alarm, alone and backstopped, where the platform
// has one.
func eachAlarm(t *testing.T, f func(t *testing.T, q *deadlines)) {
	t.Run("timer", func(t *testing.T) { f(t, newDeadlines(newTimerAlarm)) })
	t.Run("precise", func(t *testing.T) {
		a := preciseAlarm()
		if a == nil {
			t.Skip("no precise alarm on this platform")
		}
		f(t, newDeadlines(func() alarm { return a }))
	})
	t.Run("backstopped", func(t *testing.T) {
		a := preciseAlarm()
		if a == nil {
			t.Skip("no precise alarm on this platform")
		}
		f(t, newDeadlines(func() alarm { return backstopped{precise: a, backstop: newTimerAlarm()} }))
	})
}

// raceEnabled reports a -race build, whose slowdown latency bounds skip.
var raceEnabled bool

// pending reports how many waits are parked on q.
func pending(q *deadlines) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// parked waits until q holds n waits.
func parked(q *deadlines, n int) {
	for pending(q) != n {
		runtime.Gosched()
	}
}

// TestDeadlinesNeverEarly: 200 concurrent waits of mixed durations, each
// released by whichever fire comes after its deadline, none before it.
func TestDeadlinesNeverEarly(t *testing.T) {
	eachAlarm(t, func(t *testing.T, q *deadlines) {
		rng := rand.New(rand.NewSource(1))
		var wg sync.WaitGroup
		for i := 0; i < 200; i++ {
			d := 50*time.Microsecond + time.Duration(rng.Int63n(int64(3*time.Millisecond-50*time.Microsecond)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				if err := q.wait(context.Background(), d); err != nil {
					t.Error(err)
					return
				}
				if el := time.Since(start); el < d {
					t.Errorf("a %v wait returned after %v", d, el)
				}
			}()
		}
		wg.Wait()
	})
}

// TestDeadlinesRearm: a short wait pushed behind a long one re-arms the
// alarm for itself instead of waiting out the long one's: it returns while
// the long one is still parked, within a few milliseconds. The long wait is
// long, and the latency bound takes the best of 3 trials, because the
// machine may stall the process for milliseconds now and then; a wait that
// never re-arms fails every trial.
func TestDeadlinesRearm(t *testing.T) {
	eachAlarm(t, func(t *testing.T, q *deadlines) {
		const d, long = 300 * time.Microsecond, time.Second
		best := time.Duration(math.MaxInt64)
		for trial := 0; trial < 3 && best >= 4*time.Millisecond; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			longErr := make(chan error, 1)
			go func() { longErr <- q.wait(ctx, long) }()
			parked(q, 1)
			start := time.Now()
			if err := q.wait(context.Background(), d); err != nil {
				t.Fatal(err)
			}
			el := time.Since(start)
			if n := pending(q); n != 1 || el < d {
				t.Fatalf("a %v wait behind a %v one returned after %v with %d waits parked, want >= %v with the long one still parked", d, long, el, n, d)
			}
			best = min(best, el)
			cancel()
			if err := <-longErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("the cancelled %v wait returned %v", long, err)
			}
		}
		if best >= 4*time.Millisecond && !raceEnabled {
			t.Fatalf("a %v wait behind a %v one returned after %v in the best of 3 trials, want < 4ms", d, long, best)
		}
	})
}

// TestDeadlinesNoResidue: cancelled waits (dead on arrival, cancelled while
// parked, cancelled as their deadline passes) and completed ones leave the
// heap empty, and a cancelled wait returns its context's error at once.
func TestDeadlinesNoResidue(t *testing.T) {
	eachAlarm(t, func(t *testing.T, q *deadlines) {
		dead, cancel := context.WithCancel(context.Background())
		cancel()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 125; i++ {
					var ctx context.Context = dead
					cancel := func() {}
					switch i % 3 {
					case 1:
						ctx, cancel = context.WithTimeout(context.Background(), 100*time.Microsecond)
					case 2:
						ctx = lateCtx{Context: dead, late: 30 * time.Microsecond}
					}
					d := time.Hour
					if i%3 == 2 {
						d = 20 * time.Microsecond
					}
					start := time.Now()
					if err := q.wait(ctx, d); err != nil && !errors.Is(err, ctx.Err()) {
						t.Errorf("a cancelled wait returned %v, its context %v", err, ctx.Err())
					} else if err == nil && i%3 != 2 {
						t.Errorf("a %v wait on a context that ends first returned nil", d)
					}
					if el := time.Since(start); el > time.Second {
						t.Errorf("a cancelled wait took %v", el)
					}
					cancel()
					if err := q.wait(context.Background(), time.Duration(g+1)*10*time.Microsecond); err != nil {
						t.Error(err)
					}
				}
			}(g)
		}
		wg.Wait()
		if n := pending(q); n != 0 {
			t.Fatalf("%d waits left in the heap after every wait returned", n)
		}
	})
}

// TestDeadlinesCancelKeepsOrder: waits cancelled from the middle of the
// heap leave it a heap, so the head is still the earliest deadline the
// alarm must be set for.
func TestDeadlinesCancelKeepsOrder(t *testing.T) {
	eachAlarm(t, func(t *testing.T, q *deadlines) {
		rng := rand.New(rand.NewSource(2))
		const n = 64
		cancels := make([]context.CancelFunc, n)
		errs := make(chan error, n)
		for i := range cancels {
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			d := time.Hour + time.Duration(rng.Int63n(int64(time.Hour)))
			go func() { errs <- q.wait(ctx, d) }()
		}
		parked(q, n)
		for _, i := range rng.Perm(n)[:n/2] {
			cancels[i]()
		}
		parked(q, n/2)
		q.mu.Lock()
		for i, w := range q.heap {
			if w.index != i {
				t.Errorf("heap[%d] records index %d", i, w.index)
			}
			if p := (i - 1) / 2; i > 0 && q.heap[p].deadline > w.deadline {
				t.Errorf("heap[%d] is due before its parent heap[%d]", i, p)
			}
		}
		q.mu.Unlock()
		for _, cancel := range cancels {
			cancel()
		}
		for range cancels {
			if err := <-errs; !errors.Is(err, context.Canceled) {
				t.Errorf("a cancelled wait returned %v", err)
			}
		}
	})
}

// TestWaitHonoursModel: where the platform has a precise alarm, a modelled
// 400µs wait costs about 400µs, not the millisecond an idle runtime rounds
// its own timers up to. A machine busy with other work only slows a round,
// so the test takes the best of three rounds; an alarm that rounds to the
// millisecond reads ~1.1ms in every one.
func TestWaitHonoursModel(t *testing.T) {
	if raceEnabled {
		t.Skip("a latency bound: the race detector's slowdown is not the alarm's")
	}
	const d = 400 * time.Microsecond
	if err := Wait(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if _, ok := waits.alarm.(timerAlarm); ok {
		t.Skip("no precise alarm on this platform")
	}
	took := make([]time.Duration, 50)
	best := time.Duration(math.MaxInt64)
	for round := 0; round < 3 && best >= 700*time.Microsecond; round++ {
		for i := range took {
			start := time.Now()
			if err := Wait(context.Background(), d); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(start)
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		best = min(best, took[len(took)/2])
	}
	if best >= 700*time.Microsecond {
		t.Fatalf("median of %d sequential %v waits is %v in the best of 3 rounds, want < 700µs", len(took), d, best)
	}
}

// TestWaitBusyProcess: with every P kept busy, so the runtime polls the
// netpoller only from sysmon (every ~10ms), a modelled 400µs wait still
// costs about 400µs: the backstop timer releases it. The median reads
// ~460µs; without the backstop it reads ~10ms.
func TestWaitBusyProcess(t *testing.T) {
	if raceEnabled {
		t.Skip("a latency bound: the race detector's slowdown is not the alarm's")
	}
	const d = 400 * time.Microsecond
	defer keepEveryPBusy()()
	took := make([]time.Duration, 30)
	best := time.Duration(math.MaxInt64)
	for round := 0; round < 3 && best >= 2*time.Millisecond; round++ {
		for i := range took {
			start := time.Now()
			if err := Wait(context.Background(), d); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(start)
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		best = min(best, took[len(took)/2])
	}
	if best >= 2*time.Millisecond {
		t.Fatalf("median of %d sequential %v waits beside a busy goroutine per P is %v in the best of 3 rounds, want < 2ms", len(took), d, best)
	}
}
