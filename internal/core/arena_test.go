package core

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// capture is a FieldRef that keeps every record it is shown — the joined
// records a combining dereference cut from the task's arena — while capturing
// is on.
type capture struct {
	FieldRef
	on   atomic.Bool
	mu   sync.Mutex
	recs []lake.Record
}

func (c *capture) AppendRef(tc *TaskCtx, a *lake.Arena, dst []lake.Pointer, rec lake.Record) ([]lake.Pointer, error) {
	if c.on.Load() {
		c.mu.Lock()
		c.recs = append(c.recs, rec)
		c.mu.Unlock()
	}
	return c.FieldRef.AppendRef(tc, a, dst, rec)
}

// arenaRig is the job {combining RangeDeref over the target file, a capturing
// FieldRef with a prefix range and the record carried, RangeDeref} over n
// target records "row|<i>", with the pointers its tasks emit kept while
// capturing is on. A task of the first stage cuts every kind of value from
// the task's arena: joined records, keys, prefix ends and carries.
type arenaRig struct {
	e    *executor
	ref  *capture
	n    int
	mu   sync.Mutex
	ptrs []lake.Pointer
}

func newArenaRig(tb testing.TB, n int) *arenaRig {
	tb.Helper()
	r := &arenaRig{n: n, ref: &capture{FieldRef: FieldRef{Target: fTarget,
		Interp: Composite(interpCSV("c", "cid"), interpCSV("name", "id")), Field: "id",
		Encode: encInt, Prefix: true, Carry: CarryRecord}}}
	r.e = newRig(tb, 1, func(t task) {
		if r.ref.on.Load() {
			r.mu.Lock()
			r.ptrs = append(r.ptrs, t.ptrs...)
			r.mu.Unlock()
		}
	}, RangeDeref{File: fTarget, Combine: true}, r.ref, RangeDeref{File: fTarget})
	f, err := r.e.catalog.File(fTarget)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := keycodec.Int64(int64(i))
		if err := f.Append(r.e.tcs[0].Ctx, 0, lake.Record{Key: k, Data: []byte("row|" + strconv.Itoa(i))}); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

// carry is the context a task of the rig carries: one segment "c|<id>".
func (r *arenaRig) carry(id int) []byte { return lake.EncodeSegments([]byte("c|" + strconv.Itoa(id))) }

// run processes one first-stage task carrying carry(id).
func (r *arenaRig) run(id int) {
	tk := rangeTask(r.n, false, r.carry(id))
	r.e.process(r.e.tcs[0], &tk, 0)
}

// capture runs the task carrying carry(id) with capturing on and returns the
// joined records and pointers it cut, checked against their one-shot forms.
func (r *arenaRig) capture(t *testing.T, id int) ([]lake.Record, []lake.Pointer) {
	t.Helper()
	r.ref.on.Store(true)
	r.run(id)
	r.ref.on.Store(false)
	recs, ptrs := r.ref.recs, r.ptrs
	r.ref.recs, r.ptrs = nil, nil
	if err := r.e.firstErr(); err != nil || len(recs) != r.n || len(ptrs) != r.n {
		t.Fatalf("task %d: %d records, %d pointers, error %v; want %d of each", id, len(recs), len(ptrs), err, r.n)
	}
	r.check(t, fmt.Sprintf("task %d, as cut", id), id, recs, ptrs)
	return recs, ptrs
}

// check requires recs and ptrs to be byte for byte what the one-shot forms
// build for the task carrying carry(id).
func (r *arenaRig) check(t *testing.T, what string, id int, recs []lake.Record, ptrs []lake.Pointer) {
	t.Helper()
	for i, rec := range recs {
		want := lake.AppendSegment(r.carry(id), []byte("row|"+strconv.Itoa(i)))
		if !bytes.Equal(rec.Data, want) {
			t.Fatalf("%s: joined record %d reads %q, want %q", what, i, rec.Data, want)
		}
		p := ptrs[i]
		ps, err := r.ref.FieldRef.Ref(nil, lake.Record{Key: rec.Key, Data: want})
		if err != nil || len(ps) != 1 {
			t.Fatal(ps, err)
		}
		if w := ps[0]; p.Key != w.Key || p.EndKey != w.EndKey || p.PartKey != w.PartKey || !bytes.Equal(p.Carry, w.Carry) {
			t.Fatalf("%s: pointer %d is {%x %x %x %q}, want {%x %x %x %q}", what, i, p.Key, p.EndKey, p.PartKey, p.Carry, w.Key, w.EndKey, w.PartKey, w.Carry)
		}
	}
}

// TestArenaBytesOutliveReuse: the keys, prefix ends, carries and joined
// records one task cut from its arena read the same after the arena pool has
// served 1 000 later tasks — each cutting the same kinds of values, carrying
// other bytes — four at a time. An arena that handed out a cut byte again, or
// wrote one, shows here (and as a race under -race).
func TestArenaBytesOutliveReuse(t *testing.T) {
	r := newArenaRig(t, 48)
	recs, ptrs := r.capture(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				r.run(1000 + g*250 + j)
			}
		}(g)
	}
	wg.Wait()
	if err := r.e.firstErr(); err != nil {
		t.Fatal(err)
	}
	r.check(t, "after 1 000 later tasks", 1, recs, ptrs)
}

// TestArenaSlicesAreCapClipped: a joined record's Data and a pointer's Carry
// cut from the task's arena have no spare capacity, so a holder appending to
// one writes fresh memory, never the arena values cut after it.
func TestArenaSlicesAreCapClipped(t *testing.T) {
	r := newArenaRig(t, 48)
	recs, ptrs := r.capture(t, 1)
	for i := range recs {
		if cap(recs[i].Data) != len(recs[i].Data) || cap(ptrs[i].Carry) != len(ptrs[i].Carry) {
			t.Fatalf("value %d: record cap %d for %d bytes, carry cap %d for %d bytes", i,
				cap(recs[i].Data), len(recs[i].Data), cap(ptrs[i].Carry), len(ptrs[i].Carry))
		}
		_ = append(recs[i].Data, 0xEE, 0xEE, 0xEE, 0xEE)
		_ = append(ptrs[i].Carry, 0xEE, 0xEE, 0xEE, 0xEE)
	}
	r.check(t, "after appending to every value", 1, recs, ptrs)
}

// TestFieldRefTaskAllocationBudget: a 64-record FieldRef task through refer,
// each record's pointer a prefix range carrying the record, with a warm arena
// and warm pools allocates nothing per record: the key, the range's end and
// the carry are cut from the arena — at most one 4 KiB chunk per 4 KiB cut —
// the pointer scratch and the batcher's list are lent, and each range pointer
// rides in a lent buffer.
func TestFieldRefTaskAllocationBudget(t *testing.T) {
	if lossyPools() {
		t.Skip("sync.Pool drops what it is given here (the race detector does, on purpose): no warm pool to measure")
	}
	var emitted int
	e := newRig(t, 1, func(t task) { emitted += len(t.ptrs) }, LookupDeref{File: "idx"},
		FieldRef{Target: fTarget, Interp: interpCSV("name", "id"), Field: "id", Encode: encodeIntField, Prefix: true, Carry: CarryRecord},
		RangeDeref{File: fTarget})
	recs := make([]lake.Record, DefaultMaxBatch)
	cut := 0 // the bytes a run cuts
	for i := range recs {
		recs[i] = lake.Record{Key: keycodec.Int64(int64(i)), Data: []byte(fmt.Sprintf("row-%04d|%d", i, 1000+i))}
		cut += 8 + 8 + 64 + len(recs[i].Data) + 2 // key, prefix end, carry
	}
	var a lake.Arena
	allocs := func(n int) float64 {
		emitted = 0
		got := testing.AllocsPerRun(100, func() { e.refer(e.tcs[0], &a, 1, recs[:n]...) })
		if err := e.firstErr(); err != nil || emitted != 101*n {
			t.Fatalf("%d records: %d pointers over 101 runs, error %v", n, emitted, err)
		}
		return got
	}
	if a16, a64 := allocs(16), allocs(DefaultMaxBatch); a16 > chunksPerRun(cut/4, 96) || a64 > chunksPerRun(cut, 96) {
		t.Errorf("a task allocates %.0f times for 16 records and %.0f for 64; budget %.0f and %.0f (the arena chunks of %d and %d bytes)",
			a16, a64, chunksPerRun(cut/4, 96), chunksPerRun(cut, 96), cut/4, cut)
	}
}

// chunksPerRun is the most arena chunks testing.AllocsPerRun can report for a
// run that cuts cut bytes in values of at most largest bytes: a chunk holds
// at least 4 KiB - largest of them, and AllocsPerRun rounds down. So one
// allocation a run beyond the chunks always breaks the budget.
func chunksPerRun(cut, largest int) float64 { return float64(cut / (4096 - largest)) }
