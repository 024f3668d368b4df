package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

const fTarget = "target"

// sinkDispatcher stands where a job's dispatcher would: it shows every task
// to sink and then recycles the task's buffer, the way process does after
// the dereference.
type sinkDispatcher struct{ sink func(task) }

func (d sinkDispatcher) submit(_ int, t task) (int, error) {
	if d.sink != nil {
		d.sink(t)
	}
	if t.buf != nil {
		t.buf.release()
	}
	return 0, nil
}

func (sinkDispatcher) finish() {}

// newReferRig builds an executor, the way Execute builds it, for the job
// {index lookup, EntryRef, target lookup} over a one-partition target file,
// with its dispatcher replaced by a sinkDispatcher — so a test drives
// executor.refer on its own and sees the batches it emits.
func newReferRig(tb testing.TB, ref Referencer, sink func(task)) *executor {
	tb.Helper()
	return newRig(tb, 1, sink, LookupDeref{File: "idx"}, ref, LookupDeref{File: fTarget})
}

// newRig builds an executor, the way Execute builds it, for the job of funcs
// over a target file of parts partitions on one node, with its dispatcher
// replaced by a sinkDispatcher.
func newRig(tb testing.TB, parts int, sink func(task), funcs ...any) *executor {
	tb.Helper()
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := c.CreateFile(fTarget, dfs.Btree, parts, lake.HashPartitioner{}); err != nil {
		tb.Fatal(err)
	}
	job, err := NewJob("rig", []lake.Pointer{{File: "idx", NoPart: true}}, funcs...)
	if err != nil {
		tb.Fatal(err)
	}
	opts, err := Options{Threads: 1, MaxBatch: DefaultMaxBatch, InlineReferencers: true, EventCap: -1}.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	e, err := newExecutor(ctx, cancel, job, c, c, opts)
	if err != nil {
		tb.Fatal(err)
	}
	e.disp.finish() // no task was submitted: this only retires the idle pools
	e.disp = sinkDispatcher{sink: sink}
	return e
}

// indexRecords is n index entries of a file partitioned by its own int64 key
// — both halves of every entry are the same bytes, as in every claims entry.
func indexRecords(n int) []lake.Record {
	recs := make([]lake.Record, n)
	for i := range recs {
		k := keycodec.Int64(int64(1000 + i))
		recs[i] = lake.Record{Key: "idx-key", Data: lake.EncodeIndexEntry(k, k)}
	}
	return recs
}

// TestReferAllocationBudget: a 64-entry task through refer, with warm pools,
// costs only the arena chunks its keys are cut from — 64 eight-byte keys are
// an eighth of a 4 KiB chunk, so none, averaged over runs — and nothing else:
// the pointer scratch, the batcher's buffer list and the batch are lent, and
// nothing is allocated per entry — not a key string, let alone a pointer
// slice and two byte slices and two strings.
func TestReferAllocationBudget(t *testing.T) {
	var batches, ptrs int
	e := newReferRig(t, EntryRef{Target: fTarget}, func(t task) { batches, ptrs = batches+1, ptrs+len(t.ptrs) })
	recs := indexRecords(DefaultMaxBatch)
	fixed, chunks := 0.0, chunksPerRun(len(recs)*8, 8)
	if lossyPools() {
		fixed = 3 // the race detector's pools drop a quarter of what they are given: the lent slices and headers lost
	}
	var a lake.Arena // the task's arena, warm after the first run as a pooled one is
	got := testing.AllocsPerRun(100, func() { e.refer(e.tcs[0], &a, 1, recs...) })
	if got > fixed+chunks {
		t.Errorf("refer over %d entries allocates %.2f times, budget %.0f + %.0f", len(recs), got, fixed, chunks)
	}
	if err := e.firstErr(); err != nil || ptrs != batches*DefaultMaxBatch || batches == 0 {
		t.Fatalf("%d batches, %d pointers, error %v", batches, ptrs, err)
	}
}

// referencerOnly hides a Referencer's AppendRef, as user code and lakebench's
// tracing wrapper do.
type referencerOnly struct{ Referencer }

// TestReferWithoutAppendRef: a Referencer that only has Ref is called through
// it and emits the same pointers.
func TestReferWithoutAppendRef(t *testing.T) {
	recs := indexRecords(100)
	emitted := func(ref Referencer) (keys []lake.Key) {
		e := newReferRig(t, ref, func(t task) {
			for _, p := range t.ptrs {
				if p.File != fTarget || p.PartKey != p.Key {
					panic(fmt.Sprintf("bad pointer %v", p))
				}
				keys = append(keys, p.Key)
			}
		})
		e.refer(e.tcs[0], nil, 1, recs...)
		if err := e.firstErr(); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	with, without := emitted(EntryRef{Target: fTarget}), emitted(referencerOnly{EntryRef{Target: fTarget}})
	if len(with) != len(recs) || fmt.Sprint(with) != fmt.Sprint(without) {
		t.Errorf("AppendRef emitted %d pointers, Ref %d; they differ", len(with), len(without))
	}
}

// TestEntryRefPointersOwnTheirKeys: the pointers EntryRef builds are unchanged
// after the index record's payload is overwritten — dfs shares Record.Data
// with its B-trees, and a pointer outlives the call that read the entry.
func TestEntryRefPointersOwnTheirKeys(t *testing.T) {
	part, pk := keycodec.Int64(7), keycodec.Tuple(keycodec.Int64(7), keycodec.Int64(3)) // 0x00-heavy: escaped in the entry
	row := []byte("carried|row")
	for _, c := range []struct {
		what         string
		ref          EntryRef
		data         []byte
		part, pk     lake.Key
		carriedAlong []byte
	}{
		{"escaped keys", EntryRef{Target: fTarget}, lake.EncodeIndexEntry(part, pk), part, pk, nil},
		{"plain keys", EntryRef{Target: fTarget}, lake.EncodeIndexEntry("part", "primary"), "part", "primary", nil},
		{"equal halves", EntryRef{Target: fTarget}, lake.EncodeIndexEntry(part, part), part, part, nil},
		{"composite", EntryRef{Target: fTarget, FromComposite: true},
			lake.EncodeSegments(row, lake.EncodeIndexEntry(part, pk)), part, pk, lake.EncodeSegments(row)},
	} {
		ptrs, err := c.ref.Ref(nil, lake.Record{Data: c.data})
		if err != nil || len(ptrs) != 1 {
			t.Fatalf("%s: %v, %v", c.what, ptrs, err)
		}
		for i := range c.data {
			c.data[i] = 0xAA
		}
		if p := ptrs[0]; p.File != fTarget || p.PartKey != c.part || p.Key != c.pk || string(p.Carry) != string(c.carriedAlong) {
			t.Errorf("%s: pointer %v (carry %q) after the entry was overwritten; want part %q key %q carry %q",
				c.what, p, p.Carry, c.part, c.pk, c.carriedAlong)
		}
	}
}

// TestPooledBufferRetainsNothing: a buffer is zero over its full capacity
// both when the pool hands it out and once it is released — however full its
// task left it — so the pool keeps no key or carry alive and a new task
// starts from nothing.
func TestPooledBufferRetainsNothing(t *testing.T) {
	zero := func(when string, b *lent[lake.Pointer]) {
		t.Helper()
		if len(b.s) != 0 {
			t.Fatalf("%s: buffer holds %d pointers", when, len(b.s))
		}
		for i, p := range b.s[:cap(b.s)] {
			if p.File != "" || p.PartKey != "" || p.Key != "" || p.EndKey != "" || p.NoPart || p.Carry != nil {
				t.Fatalf("%s: slot %d holds %v", when, i, p)
			}
		}
	}
	for _, fill := range []int{DefaultMaxBatch, 3, 40, 3 * DefaultMaxBatch} { // the last as under a larger MaxBatch
		b := ptrBufs.get() // new or recycled, whichever the pool has
		zero("handed out", b)
		for i := 0; i < fill; i++ {
			k := keycodec.Int64(int64(i))
			b.s = append(b.s, lake.Pointer{File: fTarget, PartKey: k, Key: k, EndKey: k, NoPart: true, Carry: []byte("carried")})
		}
		b.release()
		zero(fmt.Sprintf("released after %d pointers", fill), b) // no other test goroutine is running to take it
	}
}

// splitOnceDeref is a BatchDereferencer whose every other DerefBatch fails,
// so the executor splits that batch and retries each pointer through Deref.
// It yields between pointers — room for concurrent tasks to refill recycled
// buffers — and records every key it is asked for.
type splitOnceDeref struct {
	calls atomic.Int64
	mu    sync.Mutex
	seen  map[lake.Key]int
	bad   []string
}

func (d *splitOnceDeref) Name() string { return "splitOnceDeref" }

func (d *splitOnceDeref) Deref(_ *TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	runtime.Gosched()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen[ptr.Key]++
	if ptr.File != fTarget || ptr.PartKey != ptr.Key || len(ptr.Key) != 8 || string(ptr.Carry) != "" {
		d.bad = append(d.bad, ptr.String())
	}
	return []lake.Record{{Key: ptr.Key}}, nil
}

func (d *splitOnceDeref) DerefBatch(tc *TaskCtx, ptrs []lake.Pointer) ([][]lake.Record, error) {
	if d.calls.Add(1)%2 == 1 {
		return nil, errors.New("transient batch fault")
	}
	out := make([][]lake.Record, len(ptrs))
	for i, p := range ptrs {
		out[i], _ = d.Deref(tc, p)
	}
	return out, nil
}

// TestBatchRecycledAfterLastUse: the recycle point is after the dereference,
// splits and retries included. Half the batches fail and are re-driven pointer
// by pointer while other workers take buffers from the pool and fill them; a
// buffer recycled too early would show as a missing, duplicated or foreign
// key. Every pointer must be dereferenced exactly once, with its own key.
func TestBatchRecycledAfterLastUse(t *testing.T) {
	const indexKeys, perKey = 24, 300
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	idx, err := c.CreateFile("idx", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile(fTarget, dfs.Btree, 4, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	var seeds []lake.Pointer
	for i := 0; i < indexKeys; i++ {
		ik := keycodec.Int64(int64(i))
		seeds = append(seeds, lake.Pointer{File: "idx", PartKey: ik, Key: ik})
		for j := 0; j < perKey; j++ {
			k := keycodec.Int64(int64(i*perKey + j))
			if err := dfs.AppendRouted(ctx, idx, ik, lake.Record{Key: ik, Data: lake.EncodeIndexEntry(k, k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, impl := range dispatcherImpls {
		d := &splitOnceDeref{seen: map[lake.Key]int{}}
		job, err := NewJob("recycle", seeds, LookupDeref{File: "idx"}, EntryRef{Target: fTarget}, d)
		if err != nil {
			t.Fatal(err)
		}
		opts := impl.opts(8)
		res, err := ExecuteSMPE(ctx, job, c, c, opts)
		if err != nil {
			t.Fatalf("%s: %v", impl.name, err)
		}
		if res.Count != indexKeys*perKey || len(d.seen) != indexKeys*perKey || len(d.bad) > 0 {
			t.Fatalf("%s: %d records from %d distinct keys, want %d of each; %d foreign pointers, the first %q",
				impl.name, res.Count, len(d.seen), indexKeys*perKey, len(d.bad), d.bad[:min(3, len(d.bad))])
		}
		for k, n := range d.seen {
			if n != 1 {
				t.Fatalf("%s: key %x dereferenced %d times", impl.name, k, n)
			}
		}
		if splits := res.Trace.Stages[2].BatchSplits; splits == 0 {
			t.Errorf("%s: no batch was split: the retry path did not run", impl.name)
		}
	}
}

// BenchmarkEntryRefTask is the index-entry → pointer hop on its own: one
// task's worth of entries through refer — EntryRef, the batcher and a pooled
// buffer — into a dispatcher that discards the batch.
func BenchmarkEntryRefTask(b *testing.B) {
	e := newReferRig(b, EntryRef{Target: fTarget}, nil)
	recs := indexRecords(DefaultMaxBatch)
	var a lake.Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.refer(e.tcs[0], &a, 1, recs...)
	}
	if err := e.firstErr(); err != nil {
		b.Fatal(err)
	}
}
