package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// rowSet canonicalizes a result for order-insensitive comparison.
func rowSet(recs []lake.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r.Key) + "|" + string(r.Data)
	}
	sort.Strings(out)
	return out
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedEquivalence is the tentpole's correctness contract: for random
// price ranges and every interesting MaxBatch, the batched executor must
// produce exactly the row set of the unbatched executor, of the oracle, and
// of the scan-based baseline engine — and identical per-stage emit counts,
// since batching changes task granularity but never what flows.
func TestBatchedEquivalence(t *testing.T) {
	fx := newFixture(t, 3, 17, 2)
	eng := baseline.New(fx.cluster, 4)
	sizes := []int{1, 2, 7, 64}

	check := func(loRaw, hiRaw uint8) bool {
		lo := int64(loRaw) % int64(fx.nParts*10)
		hi := lo + int64(hiRaw)%60
		job := fx.joinJob(lo, hi, false)

		base, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{
			Threads: 64, InlineReferencers: true, KeepRecords: true, MaxBatch: 1,
		})
		if err != nil {
			t.Errorf("[%d,%d] unbatched: %v", lo, hi, err)
			return false
		}
		if base.Count != fx.expectedJoinCount(lo, hi) {
			t.Errorf("[%d,%d] unbatched count = %d, oracle %d", lo, hi, base.Count, fx.expectedJoinCount(lo, hi))
			return false
		}
		want := rowSet(base.Records)

		// Baseline engine: scan lineitem, keeping rows whose part's price
		// is inside the range.
		scanned, err := eng.Scan(fx.ctx, fLine, func(r lake.Record) (bool, error) {
			f, err := interpLine(r)
			if err != nil {
				return false, err
			}
			pk, err := strconv.ParseInt(get(f, "l_partkey"), 10, 64)
			if err != nil {
				return false, err
			}
			price := fx.prices[pk]
			return price >= lo && price <= hi, nil
		})
		if err != nil {
			t.Errorf("[%d,%d] baseline: %v", lo, hi, err)
			return false
		}
		if got := rowSet(scanned); !equalRows(got, want) {
			t.Errorf("[%d,%d] baseline rows diverge: %d vs %d", lo, hi, len(got), len(want))
			return false
		}

		for _, mb := range sizes {
			res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{
				Threads: 64, KeepRecords: true, MaxBatch: mb,
			})
			if err != nil {
				t.Errorf("[%d,%d] MaxBatch=%d: %v", lo, hi, mb, err)
				return false
			}
			if got := rowSet(res.Records); !equalRows(got, want) {
				t.Errorf("[%d,%d] MaxBatch=%d rows diverge: %d vs %d", lo, hi, mb, len(got), len(want))
				return false
			}
			for s := range res.StageEmits {
				if res.StageEmits[s] != base.StageEmits[s] {
					t.Errorf("[%d,%d] MaxBatch=%d stage %d emits = %d, unbatched %d",
						lo, hi, mb, s, res.StageEmits[s], base.StageEmits[s])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchFlushOnIdle: with MaxBatch far larger than the job's pointer
// population, no buffer ever reaches the flush threshold — every pointer
// must still be delivered by the task-end flush, or the job would hang on a
// stranded tail. The deadline converts a strand into a fast failure.
func TestBatchFlushOnIdle(t *testing.T) {
	fx := newFixture(t, 2, 10, 3)
	ctx, cancel := context.WithTimeout(fx.ctx, 30*time.Second)
	defer cancel()
	job := fx.joinJob(0, 1000, false)
	res, err := ExecuteSMPE(ctx, job, fx.cluster, fx.cluster, Options{MaxBatch: 1 << 20})
	if err != nil {
		t.Fatalf("huge MaxBatch: %v", err)
	}
	if want := fx.expectedJoinCount(0, 1000); res.Count != want {
		t.Fatalf("count = %d, want %d (pointers stranded in a buffer?)", res.Count, want)
	}
}

// TestBatchingReducesAdmissions is the tentpole's payoff: the same job at
// MaxBatch 64 must reach storage with strictly fewer gate admissions than at
// MaxBatch 1, and the trace must make the achieved batch size visible.
// Lookups counts admissions even on a free-cost cluster, so the assertion is
// deterministic.
func TestBatchingReducesAdmissions(t *testing.T) {
	fx := newFixture(t, 2, 40, 4)
	job := fx.joinJob(0, 10000, false)

	run := func(mb int) (int64, *Result) {
		before := fx.cluster.TotalMetrics()
		res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{MaxBatch: mb})
		if err != nil {
			t.Fatalf("MaxBatch=%d: %v", mb, err)
		}
		return fx.cluster.TotalMetrics().Sub(before).Lookups, res
	}

	unbatchedAdmissions, _ := run(1)
	batchedAdmissions, res := run(64)
	if batchedAdmissions >= unbatchedAdmissions {
		t.Fatalf("admissions: batched %d, unbatched %d; batching should admit fewer",
			batchedAdmissions, unbatchedAdmissions)
	}
	// The final stage receives one routed pointer per lineitem; with 160
	// lineitems over 4 partitions, coalescing must produce real batches.
	st := res.Trace.Stages[len(res.Trace.Stages)-1]
	if st.Batches == 0 || st.MeanBatch() <= 1 {
		t.Fatalf("final stage mean batch = %v over %d batches, want > 1", st.MeanBatch(), st.Batches)
	}
	if res.Trace.TotalBatchedPtrs() == 0 {
		t.Fatal("trace recorded no batched pointers")
	}
}

// TestBatchSplitRetry: a transient storage fault fails the whole batched
// lookup; the executor must split the batch, re-dereference per pointer, and
// lose nothing.
func TestBatchSplitRetry(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	src, err := c.CreateFile("src", dfs.Btree, 1, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile("dst", dfs.Btree, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	dst, _ := c.File("dst")
	const rows = 40
	for i := int64(0); i < rows; i++ {
		k := keycodec.Int64(i)
		rec := lake.Record{Key: k, Data: []byte(fmt.Sprint(i))}
		if err := dfs.AppendRouted(ctx, src, k, rec); err != nil {
			t.Fatal(err)
		}
		if err := dfs.AppendRouted(ctx, dst, k, rec); err != nil {
			t.Fatal(err)
		}
	}
	job, err := NewJob("split",
		[]lake.Pointer{{File: "src", NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(rows)}},
		RangeDeref{File: "src"},
		FuncRef{Label: "to-dst", Fn: func(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
			return []lake.Pointer{{File: "dst", PartKey: rec.Key, Key: rec.Key}}, nil
		}},
		LookupDeref{File: "dst"},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Only dst is faulted, so the opening range scan cannot consume the
	// fault: the first *batched* lookup does, fails, and splits.
	if err := c.SetTransientFault("dst", 0, errors.New("flaky disk"), 1); err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSMPE(ctx, job, c, c, Options{Threads: 1, MaxBatch: 8, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != rows {
		t.Fatalf("count = %d, want %d", res.Count, rows)
	}
	if got := res.Trace.Stages[2].BatchSplits; got != 1 {
		t.Fatalf("batch splits = %d, want 1", got)
	}
}

// TestSeedRangeDegenerate: an inverted range selects nothing; it must yield
// an empty seed list, not seeds over a silently swapped range.
func TestSeedRangeDegenerate(t *testing.T) {
	fx := newFixture(t, 2, 4, 1)
	seeds, err := SeedRange(fx.cluster, fPriceIdx, keycodec.Int64(100), keycodec.Int64(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 0 {
		t.Fatalf("degenerate range produced %d seeds: %v", len(seeds), seeds)
	}
	// A proper range still seeds.
	seeds, err = SeedRange(fx.cluster, fPriceIdx, keycodec.Int64(10), keycodec.Int64(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("valid range produced no seeds")
	}
}

func TestMaxBatchNegativeRejected(t *testing.T) {
	fx := newFixture(t, 1, 2, 1)
	job := fx.joinJob(0, 1000, false)
	if _, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{MaxBatch: -1}); err == nil {
		t.Fatal("negative MaxBatch accepted")
	}
}

// TestDerefBatchAllocationBudget: one combining LookupDeref.DerefBatch on the
// zero-cost sim allocates two slices for the batch — the groups and the one
// record array storage appends into; the key list and the per-key ends are
// lent — plus one combined payload per key: no slice of records, keys or
// values per key.
func TestDerefBatchAllocationBudget(t *testing.T) {
	fx := newFixture(t, 1, 400, 1)
	part, err := fx.cluster.File(fPart)
	if err != nil {
		t.Fatal(err)
	}
	tc := &TaskCtx{Ctx: fx.cluster.Bind(fx.ctx, 0), Node: 0, Nodes: 1, Catalog: fx.cluster, Owner: fx.cluster.OwnerNode}
	carry := lake.EncodeSegments([]byte("7|1|3"))
	var ptrs []lake.Pointer // 64 distinct keys of one partition, as the executor coalesces them
	for i := int64(0); len(ptrs) < 64; i++ {
		k := keycodec.Int64(i)
		if part.Partitioner().Partition(k, part.NumPartitions()) == 0 {
			ptrs = append(ptrs, lake.Pointer{File: fPart, PartKey: k, Key: k, Carry: carry})
		}
	}
	d := LookupDeref{File: fPart, Combine: true}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			out, err := d.DerefBatch(tc, ptrs[:n])
			if err != nil || len(out) != n || len(out[n-1]) != 1 {
				t.Fatal(out, err)
			}
		})
	}
	budget := 2.0
	if lossyPools() {
		budget = 4 // the key list and the ends are allocated when the pool drops them
	}
	for _, n := range []int{16, 64} {
		if fixed := allocs(n) - float64(n); fixed > budget {
			t.Errorf("DerefBatch of %d keys allocates %.0f times beyond its %d combined payloads, budget %.0f", n, fixed, n, budget)
		}
	}
}
