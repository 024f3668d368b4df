package trace

import (
	"context"
	"testing"
	"time"
)

type otherKey struct{}

func TestRPCContext(t *testing.T) {
	base, cancel := context.WithCancel(context.WithValue(context.Background(), otherKey{}, "kept"))
	info := RPCInfo{Job: "q5", Tenant: "etl", Stage: 3}
	ctx := WithRPC(base, info)
	if got := RPCFrom(ctx); got != info {
		t.Fatalf("RPCFrom = %+v, want %+v", got, info)
	}
	if got := RPCFrom(base); got != (RPCInfo{}) {
		t.Fatalf("an unstamped context reads %+v", got)
	}
	retry := WithRPCAttempt(ctx, 2)
	if got := RPCFrom(retry); got.Attempt != 2 || got.Job != "q5" || got.Stage != 3 {
		t.Fatalf("re-stamped attempt reads %+v", got)
	}
	if RPCFrom(ctx).Attempt != 0 {
		t.Fatal("re-stamping changed the parent's attempt")
	}
	if WithRPCAttempt(base, 1) != base {
		t.Fatal("re-stamping an unstamped context made a new one")
	}
	if retry.Value(otherKey{}) != "kept" {
		t.Fatal("the stamped context lost its parent's values")
	}
	// Cancellation and deadlines are the parent's.
	child, stop := context.WithTimeout(retry, time.Hour)
	defer stop()
	cancel()
	<-child.Done()
	if retry.Err() != context.Canceled || child.Err() != context.Canceled {
		t.Fatalf("cancel did not reach the stamped context: %v, %v", retry.Err(), child.Err())
	}
}

var ctxSink context.Context

// Stamping a context is one allocation: the context, holding the info by
// value.
func TestRPCContextAllocs(t *testing.T) {
	ctx := WithRPC(context.Background(), RPCInfo{Job: "q5", Tenant: "etl", Stage: 1})
	if n := testing.AllocsPerRun(100, func() { ctxSink = WithRPC(ctx, RPCInfo{Job: "q5"}) }); n != 1 {
		t.Errorf("WithRPC: %.0f allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { ctxSink = WithRPCAttempt(ctx, 1) }); n != 1 {
		t.Errorf("WithRPCAttempt: %.0f allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = RPCFrom(ctx) }); n != 0 {
		t.Errorf("RPCFrom: %.0f allocations, want 0", n)
	}
}
