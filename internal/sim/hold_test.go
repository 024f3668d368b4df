package sim

import (
	"context"
	"testing"
	"time"
)

// TestHoldOnNilGate pins the no-op contract: a free cost model has no gate,
// and squeezing it must not panic.
func TestHoldOnNilGate(t *testing.T) {
	var g *Gate
	if n, release := g.Hold(4); n != 0 {
		t.Errorf("nil gate held %d slots", n)
	} else {
		release()
	}
}

// TestHoldSqueezesQueueDepth checks Hold takes admission slots (reducing the
// depth concurrent I/Os can use), never blocks, and releases idempotently.
func TestHoldSqueezesQueueDepth(t *testing.T) {
	g := NewGate(CostModel{LookupLatency: time.Nanosecond, QueueDepth: 4})
	taken, release := g.Hold(3)
	if taken != 3 {
		t.Fatalf("Hold(3) took %d", taken)
	}
	// One slot remains: a lookup still completes.
	done := make(chan error, 1)
	go func() { done <- g.Lookup(context.Background(), false) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lookup blocked with one free slot")
	}
	// Asking for more than remains takes what's there without blocking.
	taken2, release2 := g.Hold(10)
	if taken2 != 1 {
		t.Errorf("second Hold took %d slots, want 1", taken2)
	}
	// Fully squeezed: a lookup now blocks until release.
	blocked := make(chan error, 1)
	go func() { blocked <- g.Lookup(context.Background(), false) }()
	select {
	case err := <-blocked:
		t.Fatalf("lookup admitted through a fully held queue (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	release2()
	release()
	release() // idempotent
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lookup still blocked after release")
	}
	// All slots free again.
	if n, rel := g.Hold(4); n != 4 {
		t.Errorf("after release Hold(4) took %d", n)
	} else {
		rel()
	}
}

// TestHoldUnboundedQueue pins that a gate without QueueDepth reports nothing
// to squeeze.
func TestHoldUnboundedQueue(t *testing.T) {
	g := NewGate(CostModel{LookupLatency: time.Nanosecond})
	if n, release := g.Hold(8); n != 0 {
		t.Errorf("unbounded gate held %d slots", n)
	} else {
		release()
	}
}
