package main

import (
	"context"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// The wrappers in this file interpose on the seams the program already
// exports — a job's stage functions and their filters, the task scheduler,
// the node transport — and record a span around each call. They change no
// behaviour: a wrapped Dereferencer still batches when the inner one does,
// and every wrapper is a pass-through when the context carries no trace.

// wrapJob returns a copy of job whose Dereferencers, Referencers and
// Filters record spans into the jobTrace found in the task context.
func wrapJob(job *core.Job) *core.Job {
	out := &core.Job{Name: job.Name, Seeds: job.Seeds, Stages: make([]core.Stage, len(job.Stages))}
	for i, st := range job.Stages {
		switch {
		case st.Ref != nil:
			out.Stages[i].Ref = tracedRef{st.Ref}
		default:
			td := tracedDeref{st.Deref}
			if _, ok := st.Deref.(core.BatchDereferencer); ok {
				out.Stages[i].Deref = tracedBatchDeref{td}
			} else {
				out.Stages[i].Deref = td
			}
		}
	}
	return out
}

type tracedRef struct{ inner core.Referencer }

func (r tracedRef) Name() string { return r.inner.Name() }

func (r tracedRef) Ref(tc *core.TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	jt, parent := spanFrom(tc.Ctx)
	sp := jt.start(spanRef, parent)
	defer sp.end()
	return r.inner.Ref(tc, rec)
}

type tracedDeref struct{ inner core.Dereferencer }

func (d tracedDeref) Name() string { return d.inner.Name() }

// enter opens the invocation's span and returns what the inner call needs
// to nest under it: the Dereferencer with its Filter wrapped, and a task
// context whose I/O context names the span (the transport reads it).
func (d tracedDeref) enter(tc *core.TaskCtx) (openSpan, core.Dereferencer, *core.TaskCtx) {
	jt, parent := spanFrom(tc.Ctx)
	if jt == nil {
		return openSpan{}, d.inner, tc
	}
	sp := jt.start(spanDeref, parent)
	inner := withFilter(d.inner, func(f core.Filter) core.Filter {
		return func(rec lake.Record) (bool, error) {
			fs := jt.start(spanFilter, sp.id)
			defer fs.end()
			return f(rec)
		}
	})
	tc2 := *tc
	tc2.Ctx = withSpan(tc.Ctx, jt, sp.id)
	return sp, inner, &tc2
}

func (d tracedDeref) Deref(tc *core.TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	sp, inner, tc := d.enter(tc)
	defer sp.end()
	return inner.Deref(tc, ptr)
}

// tracedBatchDeref is tracedDeref for inner functions that implement
// core.BatchDereferencer, so wrapping never turns a batched round trip
// into per-pointer calls.
type tracedBatchDeref struct{ tracedDeref }

func (d tracedBatchDeref) DerefBatch(tc *core.TaskCtx, ptrs []lake.Pointer) ([][]lake.Record, error) {
	sp, inner, tc := d.enter(tc)
	defer sp.end()
	return inner.(core.BatchDereferencer).DerefBatch(tc, ptrs)
}

// withFilter returns d with its Filter replaced by wrap(filter), for the
// system-provided Dereferencers that carry one; anything else (or a nil
// filter) is returned unchanged.
func withFilter(d core.Dereferencer, wrap func(core.Filter) core.Filter) core.Dereferencer {
	switch d := d.(type) {
	case core.LookupDeref:
		if d.Filter != nil {
			d.Filter = wrap(d.Filter)
		}
		return d
	case core.RangeDeref:
		if d.Filter != nil {
			d.Filter = wrap(d.Filter)
		}
		return d
	case core.ScanDeref:
		if d.Filter != nil {
			d.Filter = wrap(d.Filter)
		}
		return d
	}
	return d
}

// tracedSched wraps a task scheduler for ONE traced job: every submitted
// task gets a wait span (submit → run start) and a task span.
type tracedSched struct {
	inner core.TaskScheduler
	jt    *jobTrace
	root  int32
}

func (s tracedSched) StartJob(tenant string) (core.SchedJob, error) {
	j, err := s.inner.StartJob(tenant)
	if err != nil {
		return nil, err
	}
	return tracedSchedJob{j, s.jt, s.root}, nil
}

type tracedSchedJob struct {
	inner core.SchedJob
	jt    *jobTrace
	root  int32
}

func (j tracedSchedJob) Submit(run func(worker int)) (int, error) {
	wait := j.jt.start(spanWait, j.root)
	return j.inner.Submit(func(worker int) {
		wait.end()
		task := j.jt.start(spanTask, j.root)
		defer task.end()
		run(worker)
	})
}

func (j tracedSchedJob) Finish() { j.inner.Finish() }

// tracedTransport wraps a node transport's read operations (the ones a
// query issues) with an RPC span; writes, scans and catalog calls pass
// through the embedded transport untouched.
type tracedTransport struct{ dfs.NodeTransport }

func (t tracedTransport) Lookup(ctx context.Context, file string, partition int, key lake.Key) ([]lake.Record, error) {
	jt, parent := spanFrom(ctx)
	sp := jt.start(spanRPC, parent)
	defer sp.end()
	return t.NodeTransport.Lookup(ctx, file, partition, key)
}

func (t tracedTransport) LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	jt, parent := spanFrom(ctx)
	sp := jt.start(spanRPC, parent)
	defer sp.end()
	return t.NodeTransport.LookupBatch(ctx, file, partition, keys)
}

func (t tracedTransport) LookupRange(ctx context.Context, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	jt, parent := spanFrom(ctx)
	sp := jt.start(spanRPC, parent)
	defer sp.end()
	return t.NodeTransport.LookupRange(ctx, file, partition, lo, hi)
}
