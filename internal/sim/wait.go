package sim

import (
	"context"
	"sync"
	"time"
)

// slack is how late past its deadline a wait may be released when other
// waits are parked with it: the alarm is set for the earliest deadline plus
// slack, and a new wait re-arms it only if the armed fire is more than
// slack past its own deadline. One fire releases every waiter due by then,
// so waits whose deadlines fall within slack of each other share a wake-up
// instead of each paying its own; each wake-up costs the process a few
// context switches. A wait with nothing else parked is armed for its own
// deadline.
const slack = 50 * time.Microsecond

// alarm is what the waker sleeps on. arm sets one fire, d from now,
// replacing any earlier setting. run calls fire after each fire, forever,
// from one goroutine or two; it may also call it for a stale one, which
// costs a pass over the heap and nothing else.
type alarm interface {
	arm(d time.Duration)
	run(fire func())
}

// waits holds every modelled wait in the process.
var waits = newDeadlines(defaultAlarm)

// defaultAlarm is the precise alarm where the platform has one, backed by a
// runtime timer, and a runtime timer alone elsewhere.
func defaultAlarm() alarm {
	if a := preciseAlarm(); a != nil {
		return backstopped{precise: a, backstop: newTimerAlarm()}
	}
	return newTimerAlarm()
}

// backstopped is the precise alarm with a runtime timer set slack after it.
// The precise alarm reaches the waker through the netpoller, which the
// runtime polls when a P runs out of work, or every ~10ms from sysmon: when
// every P has goroutines to run, its fire waits for that. The runtime checks
// its own timers on every schedule, so then the backstop fires instead, and
// a modelled wait is late by one more slack rather than by ~10ms. When a P
// is idle the precise alarm fires first and the waker re-arms both before
// the backstop is due.
type backstopped struct{ precise, backstop alarm }

func (a backstopped) arm(d time.Duration) {
	a.precise.arm(d)
	a.backstop.arm(d + slack)
}

func (a backstopped) run(fire func()) {
	go a.backstop.run(fire)
	a.precise.run(fire)
}

// timerAlarm is the portable alarm: one runtime timer, owned by the waker.
// Below 1ms it wakes late: when no goroutine is runnable the runtime sleeps
// in the netpoller for whole milliseconds, rounding a shorter timer up.
type timerAlarm struct{ t *time.Timer }

func newTimerAlarm() alarm {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return timerAlarm{t}
}

// arm resets the timer. Under buffered timer channels (asynctimerchan=1) a
// fire already in the channel survives the reset and wakes the waker early,
// which the alarm contract allows.
func (a timerAlarm) arm(d time.Duration) { a.t.Reset(d) }

func (a timerAlarm) run(fire func()) {
	for range a.t.C {
		fire()
	}
}

// waiter is one parked Wait: its deadline on the package clock, its place in
// the heap (-1 once the waker has popped it), and the channel the waker
// signals it on.
type waiter struct {
	deadline time.Duration
	index    int
	ready    chan struct{}
}

// waiters holds idle waiters, each with its ready channel empty.
var waiters = sync.Pool{New: func() any { return &waiter{ready: make(chan struct{}, 1)} }}

// epoch is the zero of the package clock.
var epoch = time.Now()

// clock reads the monotonic clock.
func clock() time.Duration { return time.Since(epoch) }

// deadlines is a min-heap of parked waits and the one alarm that fires for
// its head. A wait pushes itself and sleeps on its channel; one waker
// goroutine, started by the first positive wait and never stopped, sleeps on
// the alarm, and on each fire pops every waiter whose deadline has passed,
// signals it, and re-arms the alarm for the new head plus slack.
//
// Every modelled wait parks here with the earliest wake-up known, which is
// what a virtual-time plane needs: it would replace "arm a real alarm for
// the head" with "jump the clock to the head once every participant is
// parked" (ROADMAP item 2(a)).
type deadlines struct {
	newAlarm func() alarm
	start    sync.Once
	alarm    alarm

	mu   sync.Mutex
	heap []*waiter
	// fireAt is when the alarm is set to fire, or 0 when the waker has
	// nothing to wake for.
	fireAt time.Duration

	// releasing is held by one release at a time; due holds the waiters
	// that release signals.
	releasing sync.Mutex
	due       []*waiter
}

func newDeadlines(newAlarm func() alarm) *deadlines {
	return &deadlines{newAlarm: newAlarm}
}

// wait is Wait on q.
func (q *deadlines) wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	q.start.Do(q.run)
	w := waiters.Get().(*waiter)
	now := clock()
	w.deadline = now + d
	q.mu.Lock()
	q.push(w)
	switch {
	case q.fireAt == 0:
		q.fireAt = w.deadline
		q.alarm.arm(d)
	case w.deadline+slack < q.fireAt:
		q.fireAt = w.deadline + slack
		q.alarm.arm(d + slack)
	}
	q.mu.Unlock()
	select {
	case <-w.ready:
		waiters.Put(w)
		return nil
	case <-ctx.Done():
	}
	q.mu.Lock()
	popped := w.index < 0
	if !popped {
		q.remove(w.index)
	}
	q.mu.Unlock()
	if popped {
		// The waker took it off the heap and is about to signal it, or
		// has: take the signal so the waiter goes back empty.
		<-w.ready
	}
	waiters.Put(w)
	return ctx.Err()
}

// run creates the alarm and starts the waker, which releases due waiters
// on every fire for the life of the process (with the backstop's goroutine,
// where the alarm has one).
func (q *deadlines) run() {
	q.alarm = q.newAlarm()
	go q.alarm.run(q.release)
}

// release is one fire: it pops every waiter that is due, re-arms the alarm
// for the new head, and signals the popped waiters. Only the alarm's
// goroutines call it.
func (q *deadlines) release() {
	q.releasing.Lock()
	defer q.releasing.Unlock()
	q.mu.Lock()
	now := clock()
	for len(q.heap) > 0 && q.heap[0].deadline <= now {
		q.due = append(q.due, q.remove(0))
	}
	q.fireAt = 0
	if len(q.heap) > 0 {
		q.fireAt = q.heap[0].deadline + slack
		q.alarm.arm(q.fireAt - now)
	}
	q.mu.Unlock()
	for i, w := range q.due {
		w.ready <- struct{}{}
		q.due[i] = nil
	}
	q.due = q.due[:0]
}

// push adds w to the heap.
func (q *deadlines) push(w *waiter) {
	w.index = len(q.heap)
	q.heap = append(q.heap, w)
	q.up(w.index)
}

// remove takes the waiter at heap index i out of the heap and returns it.
func (q *deadlines) remove(i int) *waiter {
	h := q.heap
	w, last := h[i], len(h)-1
	if i != last {
		h[i] = h[last]
		h[i].index = i
	}
	h[last] = nil
	q.heap = h[:last]
	if i != last && !q.down(i) {
		q.up(i)
	}
	w.index = -1
	return w
}

func (q *deadlines) up(i int) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].deadline <= h[i].deadline {
			return
		}
		q.swap(p, i)
		i = p
	}
}

// down sifts the waiter at i toward the leaves and reports whether it moved.
func (q *deadlines) down(i int) bool {
	h := q.heap
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].deadline < h[c].deadline {
			c = r
		}
		if h[i].deadline <= h[c].deadline {
			break
		}
		q.swap(i, c)
		i = c
	}
	return i > start
}

func (q *deadlines) swap(i, j int) {
	h := q.heap
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
