package chaos

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

func testTarget() Target {
	return Target{
		Nodes: 3,
		Files: []FileInfo{{Name: "a", Partitions: 4}, {Name: "b", Partitions: 6}},
	}
}

// TestCompileDeterministic is the foundation of reproduce-from-seed: the
// same seed must always compile to the identical schedule, and nearby seeds
// must not all collapse to the same one.
func TestCompileDeterministic(t *testing.T) {
	tgt := testTarget()
	a := Compile(42, tgt, Profile{})
	b := Compile(42, tgt, Profile{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	distinct := false
	for seed := int64(1); seed <= 20; seed++ {
		if !reflect.DeepEqual(Compile(seed, tgt, Profile{}), a) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("20 different seeds all compiled to the same schedule")
	}
	// Heal budgets stay within the profile cap (the oracle's MaxRetries
	// sizing depends on it).
	prof := DefaultProfile()
	for seed := int64(0); seed < 50; seed++ {
		s := Compile(seed, tgt, prof)
		for _, f := range s.Faults {
			if f.Heals < 1 || f.Heals > prof.MaxHeals {
				t.Fatalf("seed %d: fault heals = %d, want 1..%d", seed, f.Heals, prof.MaxHeals)
			}
		}
	}
}

// TestArmDisarmRoundTrip checks an armed fault actually fires with a
// retryable error, heals after its budget, and that Disarm clears whatever
// is still pending.
func TestArmDisarmRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2, Cost: sim.CostModel{LookupLatency: time.Nanosecond, QueueDepth: 8}})
	f, err := c.CreateFile("a", dfs.Btree, 2, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	k := keycodec.Int64(1)
	if err := f.Append(ctx, 0, lake.Record{Key: k, Data: []byte("v")}); err != nil {
		t.Fatal(err)
	}

	s := &Schedule{
		Seed:     7,
		Faults:   []Fault{{File: "a", Partition: 0, Heals: 2}},
		Delays:   []Delay{{Node: 0, FromCall: 1, ToCall: 10, Add: time.Microsecond}},
		Squeezes: []Squeeze{{Node: 1, Slots: 3}},
	}
	armed, err := s.Arm(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, err := f.Lookup(ctx, 0, k)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("access %d: err = %v, want ErrInjected", i, err)
		}
		if lake.IsPermanent(err) {
			t.Fatalf("injected fault is permanent — the executor would never retry it")
		}
	}
	if _, err := f.Lookup(ctx, 0, k); err != nil {
		t.Fatalf("fault did not heal after its budget: %v", err)
	}
	if n := armed.Fired(); n != 2 {
		t.Errorf("Fired = %d, want 2", n)
	}
	armed.Disarm()
	armed.Disarm() // idempotent

	// After disarm: the squeeze released its slots.
	if n, rel := c.NodeGate(1).Hold(3); n != 3 {
		t.Errorf("after disarm Hold(3) on squeezed node took %d, want 3", n)
	} else {
		rel()
	}

	// Re-arming a fresh schedule still works (fault partition reusable).
	armed2, err := (&Schedule{Seed: 8, Faults: []Fault{{File: "a", Partition: 0, Heals: 1}}}).Arm(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lookup(ctx, 0, k); !errors.Is(err, ErrInjected) {
		t.Fatalf("re-armed fault did not fire: %v", err)
	}
	armed2.Disarm()
	if _, err := f.Lookup(ctx, 0, k); err != nil {
		t.Fatalf("disarm left a fault pending: %v", err)
	}
}

// TestArmUnknownFileFails checks a schedule naming a missing file,
// partition or node reports the arming error instead of silently skipping
// the event.
func TestArmUnknownFileFails(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := c.CreateFile("a", dfs.Heap, 2, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Schedule{
		{Faults: []Fault{{File: "ghost", Partition: 0, Heals: 1}}},
		{Faults: []Fault{{File: "a", Partition: 2, Heals: 1}}},
		{Delays: []Delay{{Node: 1, FromCall: 1, ToCall: 1, Add: time.Microsecond}}},
	} {
		if _, err := s.Arm(c); err == nil {
			t.Errorf("arming %s succeeded", s)
		}
	}
}

// TestArmOnFreeClusterSkipsGateEvents checks squeezes are no-ops on a
// cost-free cluster (nil gates) while faults and delays still arm.
func TestArmOnFreeClusterSkipsGateEvents(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	f, err := c.CreateFile("a", dfs.Heap, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{
		Seed:     3,
		Faults:   []Fault{{File: "a", Partition: 0, Heals: 1}},
		Delays:   []Delay{{Node: 0, FromCall: 1, ToCall: 5, Add: time.Microsecond}},
		Squeezes: []Squeeze{{Node: 0, Slots: 4}},
	}
	armed, err := s.Arm(c)
	if err != nil {
		t.Fatal(err)
	}
	defer armed.Disarm()
	if _, err := f.Lookup(ctx, 0, "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("fault on free cluster did not fire: %v", err)
	}
}

// TestShrinkFindsMinimalRepro drives the shrinker with a synthetic failure
// that depends on exactly one fault out of a busy schedule: the result must
// contain just that fault.
func TestShrinkFindsMinimalRepro(t *testing.T) {
	s := Compile(1234, testTarget(), Profile{FaultProb: 1, MaxHeals: 3, BrownoutProb: 1, SpikeProb: 1, MaxSpike: time.Millisecond, SqueezeProb: 1})
	if s.Events() < 10 {
		t.Fatalf("dense profile compiled only %d events", s.Events())
	}
	culprit := Fault{File: "b", Partition: 3}
	calls := 0
	fails := func(cand *Schedule) bool {
		calls++
		for _, f := range cand.Faults {
			if f.File == culprit.File && f.Partition == culprit.Partition {
				return true
			}
		}
		return false
	}
	min := Shrink(s, fails)
	if min.Events() != 1 || len(min.Faults) != 1 {
		t.Fatalf("shrunk to %d events (%s), want exactly the culprit fault", min.Events(), min)
	}
	if min.Faults[0].File != culprit.File || min.Faults[0].Partition != culprit.Partition {
		t.Fatalf("shrunk to wrong event: %s", min)
	}
	if calls == 0 {
		t.Fatal("predicate never invoked")
	}
	// A failure independent of chaos shrinks to the empty schedule.
	empty := Shrink(s, func(*Schedule) bool { return true })
	if empty.Events() != 0 {
		t.Fatalf("chaos-independent failure shrank to %d events, want 0", empty.Events())
	}
	// A failure needing TWO events keeps both.
	two := Shrink(s, func(cand *Schedule) bool {
		hasFault := false
		for _, f := range cand.Faults {
			if f.File == "a" && f.Partition == 0 {
				hasFault = true
			}
		}
		return hasFault && len(cand.Squeezes) > 0
	})
	if len(two.Faults) != 1 || len(two.Squeezes) != 1 || two.Events() != 2 {
		t.Fatalf("two-event failure shrank to %s", two)
	}
}

// TestScheduleStringMentionsEverything keeps the repro line informative.
func TestScheduleStringMentionsEverything(t *testing.T) {
	s := &Schedule{
		Seed:     9,
		Faults:   []Fault{{File: "a", Partition: 1, Heals: 2}},
		Delays:   []Delay{{Node: 0, FromCall: 1, ToCall: 3, Add: time.Millisecond}, {Node: 1, FromCall: 5, ToCall: 50, Add: 4 * time.Microsecond}},
		Squeezes: []Squeeze{{Node: 2, Slots: 6}},
	}
	str := s.String()
	for _, want := range []string{"seed=9", "fault:a/1×2", "delay:n0@1-3+1ms", "delay:n1@5-50+4µs", "squeeze:n2-6"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
	if got := s.TotalHeals(); got != 2 {
		t.Errorf("TotalHeals = %d, want 2", got)
	}
}

// TestArmOnRemoteCluster arms a schedule on the front end of a cluster
// built over node transports: its faults fire on the transport plane as on
// the sim — transient, heal after their budget, counted by Fired — and
// Disarm leaves the front end clean.
func TestArmOnRemoteCluster(t *testing.T) {
	ctx := context.Background()
	front, err := dfs.NewClusterWithTransports(dfs.Config{}, []dfs.NodeTransport{dfs.Local(dfs.NewCluster(dfs.Config{Nodes: 1}))})
	if err != nil {
		t.Fatal(err)
	}
	f, err := front.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(ctx, 0, lake.Record{Key: "k", Data: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	armed, err := (&Schedule{Faults: []Fault{{File: "f", Partition: 0, Heals: 2}}}).Arm(front)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, err := f.Lookup(ctx, 0, "k")
		if !errors.Is(err, ErrInjected) || lake.IsPermanent(err) {
			t.Fatalf("access %d: err = %v, want a transient ErrInjected", i, err)
		}
	}
	if recs, err := f.Lookup(ctx, 0, "k"); err != nil || len(recs) != 1 {
		t.Fatalf("healed lookup = %v, %v; want the one record", recs, err)
	}
	if n := armed.Fired(); n != 2 {
		t.Errorf("Fired = %d, want 2", n)
	}
	armed.Disarm()
	if _, err := (&Schedule{Faults: []Fault{{File: "f", Partition: 0, Heals: 1}}}).Arm(front); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lookup(ctx, 0, "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("re-armed fault on the front end did not fire: %v", err)
	}
}

// TestDelayWindowsAdd checks delay events slow the accesses their window
// covers — overlapping windows adding up — on a free-cost cluster, which
// has no gate to slow, and that a delayed access gives up when its context
// ends.
func TestDelayWindowsAdd(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	f, err := c.CreateFile("a", dfs.Heap, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	const add = 15 * time.Millisecond
	armed, err := (&Schedule{Delays: []Delay{
		{Node: 0, FromCall: 1, ToCall: 2, Add: add},
		{Node: 0, FromCall: 2, ToCall: 2, Add: add},
		{Node: 0, FromCall: 3, ToCall: 3, Add: time.Hour},
	}}).Arm(c)
	if err != nil {
		t.Fatal(err)
	}
	defer armed.Disarm()
	for call, want := range []time.Duration{add, 2 * add} {
		start := time.Now()
		if _, err := f.Lookup(ctx, 0, "k"); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < want {
			t.Errorf("access %d took %v, want >= %v", call+1, took, want)
		}
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := f.Lookup(short, 0, "k")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("delayed access under an expiring context: err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a delayed access ignored its context")
	}
	if n := armed.Fired(); n != 0 {
		t.Errorf("delays alone fired %d faults", n)
	}
}

// TestArmedHookConcurrent drives one armed schedule from many goroutines:
// the heal budget is shared by every access to its partition, so exactly
// Heals single-key accesses fail however they interleave, and Fired counts
// each of them once.
func TestArmedHookConcurrent(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	f, err := c.CreateFile("a", dfs.Heap, 2, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	const heals, workers, each = 50, 8, 20
	armed, err := (&Schedule{
		Faults: []Fault{{File: "a", Partition: 0, Heals: heals}},
		Delays: []Delay{{Node: 0, FromCall: 1, ToCall: workers * each, Add: time.Nanosecond}},
	}).Arm(c)
	if err != nil {
		t.Fatal(err)
	}
	defer armed.Disarm()
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := f.Lookup(ctx, 0, "k"); errors.Is(err, ErrInjected) {
					failed.Add(1)
				} else if err != nil {
					t.Errorf("unexpected error: %v", err)
				}
				if _, err := f.Lookup(ctx, 1, "k"); err != nil {
					t.Errorf("unfaulted partition failed: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != heals || armed.Fired() != heals {
		t.Errorf("%d accesses failed and Fired = %d, want both %d", n, armed.Fired(), heals)
	}
}
