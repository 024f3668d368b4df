package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// TestPooledRecordArrayRetainsNothing: a task's record array is zero over its
// full capacity both when the pool hands it out and once it is released —
// however full its task left it — so the pool keeps no key or payload alive
// and a new task starts from nothing.
func TestPooledRecordArrayRetainsNothing(t *testing.T) {
	zero := func(when string, b *lent[lake.Record]) {
		t.Helper()
		if len(b.s) != 0 {
			t.Fatalf("%s: array holds %d records", when, len(b.s))
		}
		for i, r := range b.s[:cap(b.s)] {
			if r.Key != "" || r.Data != nil {
				t.Fatalf("%s: slot %d holds %v", when, i, r)
			}
		}
	}
	for _, fill := range []int{DefaultMaxBatch, 3, 2300, 40, 2 * recBufs.limit} { // the last outgrows the cap
		b := recBufs.get() // new or recycled, whichever the pool has
		zero("handed out", b)
		for i := 0; i < fill; i++ {
			b.s = append(b.s, lake.Record{Key: keycodec.Int64(int64(i)), Data: []byte("payload")})
		}
		b.release()
		zero(fmt.Sprintf("released after %d records", fill), b) // no other test goroutine is running to take it
	}
}

// flakyFilter fails roughly one call in 61 with a transient error, so a
// 64-record batch usually fails part-way through — after the records before
// the failing one were appended and kept — and is split and retried pointer
// by pointer, where an unlucky pointer is retried again.
type flakyFilter struct{ calls atomic.Int64 }

func (f *flakyFilter) filter(lake.Record) (bool, error) {
	if f.calls.Add(1)%61 == 30 {
		return false, errors.New("transient filter fault")
	}
	return true, nil
}

// TestRecordArrayRecycledAfterLastUse: a task's record array is released
// after the last code that reads it — refer, collect, or the per-record
// dispatch — and a failed batch leaves nothing behind in it. Batches fail
// part-way through their filter and are split and retried while other workers
// take arrays from the pool and fill them, under both dispatchers, with
// referencers inline and queued. An array released or reused too early would
// show as a missing, duplicated or foreign record: every record Each sees and
// every record kept must be exactly what storage holds, each key once.
func TestRecordArrayRecycledAfterLastUse(t *testing.T) {
	const indexKeys, perKey = 24, 300
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	idx, err := c.CreateFile("idx", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	target, err := c.CreateFile(fTarget, dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(k lake.Key) string { return "claim-" + fmt.Sprint([]byte(k)) }
	var seeds []lake.Pointer
	for i := 0; i < indexKeys; i++ {
		ik := keycodec.Int64(int64(i))
		seeds = append(seeds, lake.Pointer{File: "idx", PartKey: ik, Key: ik})
		for j := 0; j < perKey; j++ {
			k := keycodec.Int64(int64(i*perKey + j))
			if err := dfs.AppendRouted(ctx, idx, ik, lake.Record{Key: ik, Data: lake.EncodeIndexEntry(k, k)}); err != nil {
				t.Fatal(err)
			}
			if err := dfs.AppendRouted(ctx, target, k, lake.Record{Key: k, Data: []byte(payload(k))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, impl := range dispatcherImpls {
		for _, inline := range []bool{true, false} {
			name := fmt.Sprintf("%s/inline=%v", impl.name, inline)
			flaky := &flakyFilter{}
			job, err := NewJob("recycle", seeds, LookupDeref{File: "idx"}, EntryRef{Target: fTarget},
				LookupDeref{File: fTarget, Filter: flaky.filter})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			seen := map[lake.Key]int{}
			var bad []string
			check := func(r lake.Record) {
				if string(r.Data) != payload(r.Key) {
					bad = append(bad, fmt.Sprintf("%x → %q", r.Key, r.Data))
				}
			}
			opts := impl.opts(8)
			opts.InlineReferencers, opts.MaxBatch, opts.MaxRetries, opts.KeepRecords = inline, DefaultMaxBatch, 5, true
			opts.Each = func(_ int, r lake.Record) error {
				mu.Lock()
				defer mu.Unlock()
				seen[r.Key]++
				check(r)
				return nil
			}
			res, err := Execute(ctx, job, c, c, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, r := range res.Records { // read after every array was released and reused
				check(r)
			}
			if res.Count != indexKeys*perKey || len(res.Records) != indexKeys*perKey || len(seen) != indexKeys*perKey || len(bad) > 0 {
				t.Fatalf("%s: %d records (%d kept) from %d distinct keys, want %d of each; %d foreign, the first %q",
					name, res.Count, len(res.Records), len(seen), indexKeys*perKey, len(bad), bad[:min(3, len(bad))])
			}
			for k, n := range seen {
				if n != 1 {
					t.Fatalf("%s: key %x seen %d times", name, k, n)
				}
			}
			// Queued referencers run one record per task, so their pointers
			// reach the last stage one per task, and only retries happen.
			if st := res.Trace.Stages[2]; (inline && st.BatchSplits == 0) || st.Retries == 0 {
				t.Errorf("%s: %d splits, %d retries: the split or retry path did not run", name, st.BatchSplits, st.Retries)
			}
		}
	}
}

// newDerefTaskRig is newReferRig with n records in the target file and a
// task of n pointers to them for the final LookupDeref stage.
func newDerefTaskRig(tb testing.TB, n int) (*executor, task) {
	tb.Helper()
	e := newReferRig(tb, EntryRef{Target: fTarget}, nil)
	f, err := e.catalog.File(fTarget)
	if err != nil {
		tb.Fatal(err)
	}
	var ptrs []lake.Pointer
	for i := 0; i < n; i++ {
		k := keycodec.Int64(int64(i))
		if err := f.Append(context.Background(), 0, lake.Record{Key: k, Data: []byte("claim")}); err != nil {
			tb.Fatal(err)
		}
		ptrs = append(ptrs, lake.Pointer{File: fTarget, PartKey: k, Key: k})
	}
	return e, task{stage: 2, ptrs: ptrs}
}

// TestDerefTaskAllocationBudget: a LookupDeref task through process, with
// warm pools, allocates nothing at all — the records go from the B-tree
// straight into the task's pooled array and on to collect, and the batch's
// key list for storage is lent too.
func TestDerefTaskAllocationBudget(t *testing.T) {
	if lossyPools() {
		t.Skip("sync.Pool drops what it is given here (the race detector does, on purpose): no warm pool to measure")
	}
	allocs := func(n int) float64 {
		e, tk := newDerefTaskRig(t, n)
		got := testing.AllocsPerRun(100, func() { e.process(e.tcs[0], &tk, 0) })
		if err := e.firstErr(); err != nil || e.results[0].count == 0 || e.results[0].count%int64(n) != 0 {
			t.Fatalf("%d pointers: %d records collected, error %v", n, e.results[0].count, err)
		}
		return got
	}
	const fixed = 0
	a16, a64 := allocs(16), allocs(DefaultMaxBatch)
	if a64 != a16 {
		t.Errorf("a task allocates %.0f times for 16 pointers and %.0f for 64: something is allocated per record", a16, a64)
	}
	if a64 > fixed {
		t.Errorf("a 64-pointer task allocates %.0f times, budget %d", a64, fixed)
	}
}

// newFinalStageRig is newRig for the one-stage job d over a target file of
// parts partitions holding n records, record i in partition i % parts.
func newFinalStageRig(tb testing.TB, d Dereferencer, parts, n int) *executor {
	tb.Helper()
	e := newRig(tb, parts, nil, d)
	f, err := e.catalog.File(fTarget)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := keycodec.Int64(int64(i))
		if err := f.Append(context.Background(), i%parts, lake.Record{Key: k, Data: []byte("claim")}); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// rangeTask is one task of a range pointer over the keys of records 0..n-1,
// broadcast or routed, carrying carry.
func rangeTask(n int, broadcast bool, carry []byte) task {
	return task{ptrs: []lake.Pointer{{File: fTarget, NoPart: broadcast,
		Key: keycodec.Int64(0), EndKey: keycodec.Int64(int64(n - 1)), Carry: carry}}}
}

// processAllocs is the allocations of one run of tk through process on a
// warm executor, checked to collect exactly want records per run.
func processAllocs(t *testing.T, e *executor, tk task, want int) float64 {
	t.Helper()
	got := testing.AllocsPerRun(100, func() { e.process(e.tcs[0], &tk, 0) })
	if err := e.firstErr(); err != nil || e.results[0].count%101 != 0 || e.results[0].count/101 != int64(want) {
		t.Fatalf("%d records collected over 101 runs, want %d per run; error %v", e.results[0].count, want, err)
	}
	return got
}

// TestRangeDerefTaskAllocationBudget: a RangeDeref task through process, with
// warm pools, allocates nothing at all — routed to one partition or broadcast
// over the node's four — because storage appends each partition's range
// straight onto the task's pooled array.
func TestRangeDerefTaskAllocationBudget(t *testing.T) {
	if lossyPools() {
		t.Skip("sync.Pool drops what it is given here (the race detector does, on purpose): no warm pool to measure")
	}
	for _, tc := range []struct {
		name      string
		parts     int
		broadcast bool
	}{{"routed", 1, false}, {"broadcast", 4, true}} {
		allocs := func(n int) float64 {
			return processAllocs(t, newFinalStageRig(t, RangeDeref{File: fTarget}, tc.parts, n), rangeTask(n, tc.broadcast, nil), n)
		}
		if a16, a256 := allocs(16), allocs(256); a16 != 0 || a256 != 0 {
			t.Errorf("%s: a range task allocates %.0f times for 16 records and %.0f for 256, budget 0", tc.name, a16, a256)
		}
	}
}

// TestCombineFilterAllocationBudget: a combining, filtered dereference task
// through process, with warm pools, allocates nothing per record, whether its
// filter drops the record or keeps it: each joined record is built in the
// task's arena, and a kept one is cut from it where it was built — at most
// one 4 KiB chunk per 4 KiB kept. The filter sees every record already joined
// onto its pointer's carry.
func TestCombineFilterAllocationBudget(t *testing.T) {
	if lossyPools() {
		t.Skip("sync.Pool drops what it is given here (the race detector does, on purpose): no warm pool to measure")
	}
	const n = DefaultMaxBatch
	carry := lake.EncodeSegments([]byte("order|1"))
	joined := lake.AppendSegment(carry, []byte("claim"))
	for _, keep := range []bool{false, true} {
		filter := func(rec lake.Record) (bool, error) {
			if !bytes.Equal(rec.Data, joined) {
				return false, fmt.Errorf("filter saw %q, want %q", rec.Data, joined)
			}
			return keep, nil
		}
		points := task{}
		for i := 0; i < n; i++ {
			k := keycodec.Int64(int64(i))
			points.ptrs = append(points.ptrs, lake.Pointer{File: fTarget, PartKey: k, Key: k, Carry: carry})
		}
		want, chunks := 0, 0.0
		if keep {
			want, chunks = n, chunksPerRun(n*len(joined), len(joined))
		}
		for _, tc := range []struct {
			name string
			d    Dereferencer
			tk   task
		}{
			{"LookupDeref", LookupDeref{File: fTarget, Combine: true, Filter: filter}, points},
			{"RangeDeref", RangeDeref{File: fTarget, Combine: true, Filter: filter}, rangeTask(n, false, carry)},
		} {
			if got := processAllocs(t, newFinalStageRig(t, tc.d, 1, n), tc.tk, want); got > chunks {
				t.Errorf("%s, filter keeps %v: %d records cost %.0f allocations, budget %.0f", tc.name, keep, n, got, chunks)
			}
		}
	}
}

// lossyPools reports whether sync.Pool fails to hand back what was just put
// into it, as it does on purpose under the race detector.
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

// BenchmarkDerefTask is the pointer batch → records hop on its own: one
// 64-pointer LookupDeref task through process — the admission, the B-tree,
// the pooled record array — into collect.
func BenchmarkDerefTask(b *testing.B) {
	e, tk := newDerefTaskRig(b, DefaultMaxBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.process(e.tcs[0], &tk, 0)
	}
	if err := e.firstErr(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRangeDerefTask is the range pointer → records hop on its own: one
// broadcast RangeDeref task over the node's four partitions, 64 records in
// all, through process into collect.
func BenchmarkRangeDerefTask(b *testing.B) {
	e := newFinalStageRig(b, RangeDeref{File: fTarget}, 4, DefaultMaxBatch)
	tk := rangeTask(DefaultMaxBatch, true, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.process(e.tcs[0], &tk, 0)
	}
	if err := e.firstErr(); err != nil {
		b.Fatal(err)
	}
}
