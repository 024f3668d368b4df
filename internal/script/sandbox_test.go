package script

// Sandbox regression tests: the budgets and isolation guarantees the rest
// of the stack relies on when it runs user-supplied scripts inside the
// executor and the structure builder.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// newTestCluster returns a 2-node cluster with n "i|val" rows in "base".
func newTestCluster(t *testing.T, n int) *dfs.Cluster {
	t.Helper()
	ctx := context.Background()
	cluster := dfs.NewCluster(dfs.Config{Nodes: 2})
	f, err := cluster.CreateFile("base", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := keycodec.Int64(int64(i))
		rec := lake.Record{Key: k, Data: []byte(fmt.Sprintf("%d|%d", i, i%5))}
		if err := dfs.AppendRouted(ctx, f, k, rec); err != nil {
			t.Fatal(err)
		}
	}
	return cluster
}

// TestRunawayLoopHitsStepBudget: an infinite loop must terminate at the
// step budget with a permanent, typed error — and because the error is
// permanent, the executor must not retry it even with a retry budget.
func TestRunawayLoopHitsStepBudget(t *testing.T) {
	cluster := newTestCluster(t, 20)
	p := MustCompile(`fn keep(key, data) { while true { } return true }`)
	filter, err := p.NewFilter("keep", Limits{Steps: 1000})
	if err != nil {
		t.Fatal(err)
	}

	before := Counters()
	seeds := []lake.Pointer{{File: "base", NoPart: true}}
	job, err := core.NewJob("runaway", seeds, core.ScanDeref{File: "base", Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	res, execErr := core.ExecuteSMPE(context.Background(), job, cluster, cluster,
		core.Options{MaxRetries: 5, KeepRecords: true})
	if execErr == nil {
		t.Fatal("runaway script did not fail the job")
	}
	var serr *Error
	if !errors.As(execErr, &serr) || serr.Class != ClassStepBudget {
		t.Fatalf("error %v is not a step-budget *script.Error", execErr)
	}
	if !core.Permanent(execErr) {
		t.Fatalf("step-budget error %v does not classify as permanent", execErr)
	}
	// Fail fast: a permanent error must never be retried.
	if res != nil && res.Trace != nil {
		if n := res.Trace.TotalRetries(); n != 0 {
			t.Fatalf("executor retried a permanent script error %d times", n)
		}
	}
	after := Counters()
	if after.StepTrips <= before.StepTrips {
		t.Fatal("StepTrips counter did not advance")
	}
}

// TestAllocationBombHitsAllocBudget: doubling a string forever must stop at
// the allocation budget, not at the host's OOM killer.
func TestAllocationBombHitsAllocBudget(t *testing.T) {
	p := MustCompile(`fn main() {
		let s = "xxxxxxxxxxxxxxxx"
		while true { s = s + s }
	}`)
	before := Counters()
	_, err := p.Call("main", Limits{AllocBytes: 1 << 16}, nil)
	if err == nil {
		t.Fatal("allocation bomb did not fail")
	}
	var serr *Error
	if !errors.As(err, &serr) || serr.Class != ClassAllocBudget {
		t.Fatalf("error %v is not an alloc-budget *script.Error", err)
	}
	if !lake.IsPermanent(err) {
		t.Fatalf("alloc-budget error %v does not classify as permanent", err)
	}
	if after := Counters(); after.AllocTrips <= before.AllocTrips {
		t.Fatal("AllocTrips counter did not advance")
	}
}

// TestEmitBombHitsAllocBudget: output handed to the adapters is the host's
// memory, so it is metered like the strings a program produces. A loop around
// emit (or set) under the default step budget would otherwise append tens of
// thousands of pointers — megabytes — without ever touching AllocBytes.
func TestEmitBombHitsAllocBudget(t *testing.T) {
	p := MustCompile(`fn ref(key, data) { while true { emit("f", key, key) } }
fn keys(key, data) { while true { emit(key) } }
fn interpret(key, data) { while true { set("k", 7) } }`)
	lim := Limits{AllocBytes: 1 << 14}
	rec := lake.Record{Key: "k", Data: []byte("d")}
	ref, err := p.NewReferencer("bomb", "ref", lim)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := p.KeysFunc("keys", lim)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := p.NewInterpreter("interpret", lim)
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"emit pointer": func() error { _, err := ref.Ref(&core.TaskCtx{}, rec); return err },
		"emit key":     func() error { _, err := keys(rec); return err },
		"set":          func() error { _, err := interp(rec); return err },
	} {
		before := Counters()
		err := call()
		var serr *Error
		if !errors.As(err, &serr) || serr.Class != ClassAllocBudget {
			t.Fatalf("%s bomb ended in %v, want an alloc-budget *script.Error", name, err)
		}
		if !lake.IsPermanent(err) {
			t.Fatalf("%s bomb: %v does not classify as permanent", name, err)
		}
		if after := Counters(); after.AllocTrips != before.AllocTrips+1 {
			t.Fatalf("%s bomb: AllocTrips moved by %d, want 1", name, after.AllocTrips-before.AllocTrips)
		}
	}
	// The default budgets leave room for any real fan-out: a thousand
	// pointers from one record is ~100 KB of the 1 MiB.
	fan := MustCompile(`fn ref(key, data) { let i = 0 while i < 1000 { emit("f", key, key) i = i + 1 } }`)
	wide, err := fan.NewReferencer("fan", "ref", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ptrs, err := wide.Ref(&core.TaskCtx{}, rec); err != nil || len(ptrs) != 1000 {
		t.Fatalf("1000-pointer fan-out = %d pointers, %v", len(ptrs), err)
	}
}

// TestHostPanicIsContained: the sandbox promises typed errors, never process
// death — a panic below Call (a faulting host builtin, or an evaluator bug)
// must surface as a permanent runtime *Error, not crash the server.
func TestHostPanicIsContained(t *testing.T) {
	p := MustCompile(`fn main() { return boom() }`)
	_, err := p.Call("main", Limits{}, map[string]Builtin{
		"boom": func([]Value) (Value, error) { panic("kaboom") },
	})
	var serr *Error
	if !errors.As(err, &serr) || serr.Class != ClassRuntime {
		t.Fatalf("panic surfaced as %v, want a runtime *script.Error", err)
	}
	if !lake.IsPermanent(err) {
		t.Fatalf("recovered panic %v does not classify as permanent", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("recovered panic %v lost the panic value", err)
	}
}

// TestStringComparisonChargesSteps: comparing strings costs steps
// proportional to the bytes compared, so a loop comparing a large record
// payload cannot turn a step budget into seconds of CPU.
func TestStringComparisonChargesSteps(t *testing.T) {
	p := MustCompile(`fn main(s) { return s == s }`)
	before := Counters()
	_, err := p.Call("main", Limits{Steps: 1000}, nil, Str(strings.Repeat("x", 100_000)))
	var serr *Error
	if !errors.As(err, &serr) || serr.Class != ClassStepBudget {
		t.Fatalf("comparing 100k bytes under a 1000-step budget = %v, want a step-budget error", err)
	}
	if after := Counters(); after.StepTrips <= before.StepTrips {
		t.Fatal("StepTrips counter did not advance")
	}
	// Short operands stay cheap: comparing against a small literal is
	// charged by the shorter side, so filtering a big payload still fits a
	// tiny budget.
	if v, err := p.Call("main", Limits{Steps: 50}, nil, Str("abc")); err != nil {
		t.Fatalf("small comparison tripped the budget: %v", err)
	} else if b, ok := v.IsBool(); !ok || !b {
		t.Fatalf("s == s = %#v, want true", v)
	}
	q := MustCompile(`fn main(s) { return s == "needle" }`)
	if _, err := q.Call("main", Limits{Steps: 50}, nil, Str(strings.Repeat("x", 100_000))); err != nil {
		t.Fatalf("big-vs-literal comparison must charge the shorter operand: %v", err)
	}
	// find scans the haystack and is charged the same way.
	f := MustCompile(`fn main(s) { return find(s, "|") }`)
	if _, err := f.Call("main", Limits{Steps: 1000}, nil, Str(strings.Repeat("x", 100_000))); err == nil {
		t.Fatal("find over 100k bytes under a 1000-step budget did not trip")
	}
}

// TestFailedScriptedBuildLeavesNoFile: a script error mid-build must fail
// the build AND drop the partial structure file — no half-built structures.
func TestFailedScriptedBuildLeavesNoFile(t *testing.T) {
	cluster := newTestCluster(t, 40)
	reg := NewRegistry(Limits{})
	// int() faults on the row whose id is 13 ("13|3" → int("boom")).
	if _, err := reg.Put("faulty", `fn partkey(key, data) { return key }
fn keys(key, data) {
	let id = substr(data, 0, find(data, "|"))
	if id == "13" {
		emit(keyint(int("boom")))
	}
	emit(keyint(int(substr(data, find(data, "|") + 1, len(data)))))
}`); err != nil {
		t.Fatal(err)
	}
	spec, err := reg.Bind(SpecBinding{
		Structure: "base_val_idx", Base: "base", Kind: "local", Script: "faulty",
		PartKeyFn: "partkey", KeysFn: "keys",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := indexer.Build(context.Background(), cluster, spec); err == nil {
		t.Fatal("build over a faulting script succeeded")
	} else if !lake.IsPermanent(err) {
		t.Fatalf("build error %v does not classify as permanent", err)
	}
	if _, err := cluster.File("base_val_idx"); err == nil {
		t.Fatal("failed scripted build left a half-built structure behind")
	}
}

// TestRePostCannotSwapSemanticsMidBuild: a Spec bound from a script
// captures the compiled program; re-POSTing the script while a build built
// from that Spec runs (or before it runs) must not change what gets built.
func TestRePostCannotSwapSemanticsMidBuild(t *testing.T) {
	ctx := context.Background()
	cluster := newTestCluster(t, 60)
	reg := NewRegistry(Limits{})
	src := func(offset int) string {
		return fmt.Sprintf(`fn partkey(key, data) { return key }
fn keys(key, data) { emit(keyint(int(substr(data, find(data, "|") + 1, len(data))) + %d)) }`, offset)
	}
	h1, err := reg.Put("idxfns", src(0))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := reg.Bind(SpecBinding{
		Structure: "base_val_idx", Base: "base", Kind: "local", Script: "idxfns",
		PartKeyFn: "partkey", KeysFn: "keys",
	})
	if err != nil {
		t.Fatal(err)
	}

	// The build starts, and mid-flight the script is re-POSTed with
	// different semantics (every index key shifted by 1000). The running
	// build must keep the captured version.
	barrier := make(chan struct{})
	status := indexer.StartBuild(ctx, cluster, spec, indexer.BuildOptions{
		Barrier: func(int) { <-barrier },
	})
	h2, err := reg.Put("idxfns", src(1000))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Version <= h1.Version {
		t.Fatalf("re-POST did not bump the version: %d then %d", h1.Version, h2.Version)
	}
	if h2.Program() == h1.Program() {
		t.Fatal("re-POST returned the same compiled program")
	}
	close(barrier)
	if err := status.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Every entry must be keyed by the ORIGINAL script's keys: vals 0–4,
	// nothing at 1000+.
	idx, err := cluster.BtreeFile("base_val_idx")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for part := 0; part < idx.NumPartitions(); part++ {
		recs, err := idx.LookupRange(ctx, part, keycodec.Int64(0), keycodec.Int64(4))
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
		if shifted, err := idx.LookupRange(ctx, part, keycodec.Int64(1000), keycodec.Int64(1004)); err != nil {
			t.Fatal(err)
		} else if len(shifted) != 0 {
			t.Fatalf("partition %d holds %d entries from the re-POSTed script", part, len(shifted))
		}
	}
	if total != 60 {
		t.Fatalf("index holds %d entries, want 60", total)
	}

	// A binding resolved AFTER the re-POST picks up the new semantics.
	spec2, err := reg.Bind(SpecBinding{
		Structure: "base_val_idx2", Base: "base", Kind: "local", Script: "idxfns",
		PartKeyFn: "partkey", KeysFn: "keys",
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := spec2.Keys(lake.Record{Key: keycodec.Int64(3), Data: []byte("3|3")})
	if err != nil || len(keys) != 1 || keys[0] != keycodec.Int64(1003) {
		t.Fatalf("rebound Keys = %v, %v; want the re-POSTed semantics", keys, err)
	}
}

// TestScriptErrorsFailScanFilters: a faulting script inside a job surfaces
// as a permanent error with the script's position, not a silent drop.
func TestScriptErrorsFailScanFilters(t *testing.T) {
	cluster := newTestCluster(t, 10)
	p := MustCompile(`fn keep(key, data) { return int(key) == 0 }`) // keys are keycodec-encoded, not decimal
	filter, err := p.NewFilter("keep", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewJob("faulty", []lake.Pointer{{File: "base", NoPart: true}},
		core.ScanDeref{File: "base", Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	_, execErr := core.ExecuteSMPE(context.Background(), job, cluster, cluster, core.Options{})
	if execErr == nil || !core.Permanent(execErr) {
		t.Fatalf("want a permanent script error, got %v", execErr)
	}
	if !strings.Contains(execErr.Error(), "script:") {
		t.Fatalf("error %v does not carry the script prefix", execErr)
	}
}
