package core

import (
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/lake"
)

// intSet is a bare worker set over a FIFO of ints — the shape both owners
// give a Workers: their queues, their lock, their pick.
type intSet struct {
	max int
	mu  sync.Mutex
	q   FIFO[int]
	w   *Workers[int]
	ran chan int
}

func newIntSet(t *testing.T, max int) *intSet {
	s := &intSet{max: max, ran: make(chan int, 1<<13)}
	next := func(v *int) bool {
		if s.q.Len() == 0 {
			return false
		}
		*v = s.q.Pop()
		return true
	}
	s.w = NewWorkers(&s.mu, max, next, func(v *int, _ int) { s.ran <- *v }, func(*int) {})
	t.Cleanup(s.w.Close)
	return s
}

// push queues v and kicks the set, reporting whether a worker started.
func (s *intSet) push(v int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.Push(v)
	return s.w.Kick(s.w.Live() < s.max)
}

func (s *intSet) counts() (live, parked int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Live(), s.w.Parked()
}

func TestQueueFIFO(t *testing.T) {
	var q FIFO[task]
	for i := 0; i < 10; i++ {
		if depth := q.Push(task{stage: i}); depth != i+1 {
			t.Fatalf("push %d: depth %d", i, depth)
		}
	}
	for i := 0; i < 10; i++ {
		if got := q.Pop(); got.stage != i {
			t.Fatalf("pop %d = %d", i, got.stage)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue has length %d", q.Len())
	}
}

// TestQueueCloseDrains: once finish has begun the job's queues refuse
// tasks, but what was queued before still runs, and finish waits for it.
func TestQueueCloseDrains(t *testing.T) {
	coldNodes(t)
	unblock := make(chan struct{})
	ran := make(chan lake.Key, 3)
	r := newDispatchRig(t, Options{Threads: 1, EventCap: -1}, 1, func(_ *dispatchRig, _ *TaskCtx, ptr lake.Pointer) {
		if ptr.Key == "first" {
			<-unblock
		}
		ran <- ptr.Key
	})
	for _, k := range []string{"first", "a", "b"} {
		r.dispatch(0, k)
	}
	finished := make(chan struct{})
	go func() { r.e.disp.finish(); close(finished) }()
	jq := &r.e.disp.(standingJob)[0]
	for over := false; !over; {
		jq.set.mu.Lock()
		over = jq.over
		jq.set.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if _, err := r.e.disp.submit(0, task{}); err != errJobOver {
		t.Fatalf("submit during finish: err = %v, want errJobOver", err)
	}
	select {
	case <-finished:
		t.Fatal("finish returned with a task still running")
	case <-time.After(10 * time.Millisecond):
	}
	close(unblock)
	<-finished
	for _, want := range []lake.Key{"first", "a", "b"} {
		if got := <-ran; got != want {
			t.Fatalf("ran %q, want %q", got, want)
		}
	}
}

func TestQueuePushAfterCloseDropped(t *testing.T) {
	coldNodes(t)
	r := newDispatchRig(t, Options{EventCap: -1}, 1, func(*dispatchRig, *TaskCtx, lake.Pointer) {
		t.Error("a task submitted after finish ran")
	})
	r.release(t)
	r.e.disp.finish()
	if _, err := r.e.disp.submit(0, task{}); err != errJobOver {
		t.Fatalf("submit after finish: err = %v, want errJobOver", err)
	}
	if n := r.e.disp.(standingJob)[0].q.Len(); n != 0 {
		t.Fatalf("refused task left %d queued", n)
	}
}

// TestQueueBlockingPopWakesOnPush: a worker parks when its queue is empty
// and the next push wakes it instead of starting another.
func TestQueueBlockingPopWakesOnPush(t *testing.T) {
	s := newIntSet(t, 4)
	if !s.push(1) {
		t.Fatal("first push onto an empty set started no worker")
	}
	<-s.ran
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, parked := s.counts(); parked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never parked")
		}
	}
	if s.push(7) {
		t.Fatal("a push beside a parked worker started another")
	}
	if got := <-s.ran; got != 7 {
		t.Fatalf("woken worker ran %d, want 7", got)
	}
	if live, _ := s.counts(); live != 1 {
		t.Fatalf("%d live workers, want 1", live)
	}
}

func TestQueueConcurrent(t *testing.T) {
	const producers, perProducer, workers = 8, 500, 4
	s := newIntSet(t, workers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.push(i)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < producers*perProducer; i++ {
		select {
		case <-s.ran:
		case <-time.After(10 * time.Second):
			t.Fatalf("consumed %d tasks, want %d", i, producers*perProducer)
		}
	}
	if live, _ := s.counts(); live > workers {
		t.Fatalf("%d live workers, ceiling is %d", live, workers)
	}
}
