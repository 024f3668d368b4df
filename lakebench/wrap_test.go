package main

import (
	"context"
	"reflect"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/sched"
	"lakeharbor/internal/tpch"
)

// wrapFixture is a small loaded lake, one Q5' job over it and its oracle.
type wrapFixture struct {
	cluster *dfs.Cluster
	job     *core.Job
	want    int64
}

func newWrapFixture(t *testing.T) wrapFixture {
	t.Helper()
	ctx := context.Background()
	ds := tpch.Generate(tpch.Config{SF: 0.1, Seed: 7})
	cluster := dfs.NewCluster(dfs.Config{Nodes: 4})
	if err := tpch.Load(ctx, cluster, ds, 0); err != nil {
		t.Fatal(err)
	}
	if err := tpch.BuildStructures(ctx, cluster); err != nil {
		t.Fatal(err)
	}
	lo, hi := tpch.DateRange(0.5)
	job, err := tpch.Q5Job(ctx, cluster, "ASIA", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want := ds.OracleQ5("ASIA", lo, hi)
	if want == 0 {
		t.Fatal("fixture query returns no rows")
	}
	return wrapFixture{cluster, job, want}
}

// run executes job and returns what a wrapper must leave untouched.
func run(t *testing.T, ctx context.Context, job *core.Job, c *dfs.Cluster, opts core.Options) (int64, []int64) {
	t.Helper()
	res, err := core.ExecuteSMPE(ctx, job, c, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Count, res.StageEmits
}

func TestWrappedStagesLeaveTheAnswerAlone(t *testing.T) {
	fx := newWrapFixture(t)
	count, emits := run(t, context.Background(), fx.job, fx.cluster, core.Options{})
	if count != fx.want {
		t.Fatalf("unwrapped job: %d rows, oracle %d", count, fx.want)
	}
	wrapped := wrapJob(fx.job)
	for i, st := range fx.job.Stages {
		_, inner := st.Deref.(core.BatchDereferencer)
		_, outer := wrapped.Stages[i].Deref.(core.BatchDereferencer)
		if inner != outer {
			t.Errorf("stage %d (%s): batches unwrapped=%v wrapped=%v; wrapping must not change how a stage reaches storage", i, st.Deref.Name(), inner, outer)
		}
	}

	// Untraced: the wrappers are pass-throughs.
	if c, e := run(t, context.Background(), wrapped, fx.cluster, core.Options{}); c != count || !reflect.DeepEqual(e, emits) {
		t.Errorf("wrapped, untraced: %d rows %v, want %d %v", c, e, count, emits)
	}

	tr := newTracer()
	ctx, done := tr.beginJob(context.Background())
	c, e := run(t, ctx, wrapped, fx.cluster, core.Options{})
	done()
	if c != count || !reflect.DeepEqual(e, emits) {
		t.Errorf("wrapped, traced: %d rows %v, want %d %v", c, e, count, emits)
	}
	// Every referencer call and every filter call left a span: stage 1, 3,
	// 5, 7 are the referencers; stages 4 and 8 filter what 3 and 7 emitted
	// (one record per pointer — the lookups are on primary keys).
	if got, want := tr.count[spanRef], emits[0]+emits[2]+emits[4]+emits[6]; got != want {
		t.Errorf("%d ref spans, want %d", got, want)
	}
	if got, want := tr.count[spanFilter], emits[3]+emits[7]; got != want {
		t.Errorf("%d filter spans, want %d", got, want)
	}
	if tr.count[spanDeref] == 0 || tr.selfNs[spanJob] <= 0 {
		t.Errorf("deref spans %d, job self time %d", tr.count[spanDeref], tr.selfNs[spanJob])
	}
}

func TestWrappedSchedulerLeavesTheAnswerAlone(t *testing.T) {
	fx := newWrapFixture(t)
	count, emits := run(t, context.Background(), fx.job, fx.cluster, core.Options{})
	s, err := sched.New(sched.Options{Workers: 8, ShedDepth: -1}, sched.TenantConfig{Name: "a", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr := newTracer()
	ctx, done := tr.beginJob(context.Background())
	jt, root := spanFrom(ctx)
	c, e := run(t, ctx, fx.job, fx.cluster,
		core.Options{Tenant: "a", Scheduler: tracedSched{s, jt, root}})
	done()
	if c != count || !reflect.DeepEqual(e, emits) {
		t.Errorf("through the wrapped scheduler: %d rows %v, want %d %v", c, e, count, emits)
	}
	if tr.count[spanWait] == 0 || tr.count[spanWait] != tr.count[spanTask] {
		t.Errorf("%d wait spans, %d task spans: want one of each per submitted task", tr.count[spanWait], tr.count[spanTask])
	}
	if len(tr.samples[spanWait]) != int(tr.count[spanWait]) {
		t.Errorf("%d submit-to-run samples for %d submits", len(tr.samples[spanWait]), tr.count[spanWait])
	}
}

func TestWrappedTransportLeavesTheAnswerAlone(t *testing.T) {
	fx := newWrapFixture(t)
	count, emits := run(t, context.Background(), fx.job, fx.cluster, core.Options{})
	plane, err := startNetPlane(context.Background(), fx.cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.close()
	opts := core.Options{MaxRetries: 2}
	if c, e := run(t, context.Background(), fx.job, plane.cluster, opts); c != count || !reflect.DeepEqual(e, emits) {
		t.Fatalf("over the bare net plane: %d rows %v, want %d %v", c, e, count, emits)
	}

	c0 := plane.traceOn()
	tr := newTracer()
	ctx, done := tr.beginJob(context.Background())
	c, e := run(t, ctx, wrapJob(fx.job), plane.cluster, opts)
	done()
	m := map[string]float64{}
	plane.traceOff(c0, tr, m, 1)
	if c != count || !reflect.DeepEqual(e, emits) {
		t.Errorf("over the wrapped transport: %d rows %v, want %d %v", c, e, count, emits)
	}
	if tr.count[spanRPC] == 0 || m["nodenet.rpcs_per_job"] < float64(tr.count[spanRPC]) {
		t.Errorf("%d rpc spans, %g client RPCs: every span is an RPC (hedges add more)", tr.count[spanRPC], m["nodenet.rpcs_per_job"])
	}
	if m["nodenet.server_us_p50"] <= 0 {
		t.Errorf("server-side latency not observed: %v", m)
	}
	// The RPC spans nest under deref spans, so deref self time excludes them.
	if tr.selfNs[spanDeref] >= tr.busyNs[spanDeref] {
		t.Errorf("deref self %d not below busy %d", tr.selfNs[spanDeref], tr.busyNs[spanDeref])
	}

	plane.closeClients()
	if open := plane.stats.OpenConns(); open != 0 {
		t.Errorf("%d connections open after the clients closed", open)
	}
}
