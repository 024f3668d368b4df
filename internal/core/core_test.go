package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// testFixture is a tiny two-table lake mirroring the paper's Part⋈Lineitem
// example: "part" (pk p_key, payload "p_key|p_price"), a local secondary
// B-tree index on p_price, "lineitem" (pk (l_order,l_line), partitioned by
// l_order, payload "l_order|l_line|l_partkey"), and a global index on
// l_partkey.
type testFixture struct {
	cluster  *dfs.Cluster
	nParts   int
	nPer     int // lineitems per part
	prices   map[int64]int64
	ctx      context.Context
	interpPS Interpreter // part payload
}

const (
	fPart     = "part"
	fPriceIdx = "part_price_idx"
	fLine     = "lineitem"
	fLPartIdx = "lineitem_partkey_idx"
)

var (
	interpPart = Delimited("part", '|', "p_key", "p_price")
	interpLine = Delimited("lineitem", '|', "l_order", "l_line", "l_partkey")
)

// get reads one field of an interpreted record; a missing field reads "".
func get(f Fields, name string) string {
	v, _ := f.Get(name)
	return v
}

func encodeIntField(dst []byte, v string) ([]byte, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return dst, err
	}
	return keycodec.AppendInt64(dst, n), nil
}

// fault fails every access to one partition of file with err: a permanent
// fault, for failure-injection tests.
func (fx *testFixture) fault(file string, partition int, err error) {
	fx.cluster.InjectFaults(func(a dfs.Access) (time.Duration, error) {
		if a.File == file && a.Partition == partition {
			return 0, err
		}
		return 0, nil
	})
}

// newFixture builds the lake on a cluster of `nodes` nodes with `nParts`
// part rows, each referenced by `nPer` lineitems. Price of part i is i*10.
func newFixture(t testing.TB, nodes, nParts, nPer int) *testFixture {
	t.Helper()
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: nodes})
	partitions := nodes * 2

	part, err := c.CreateFile(fPart, dfs.Btree, partitions, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	priceIdx, err := c.CreateFile(fPriceIdx, dfs.Btree, partitions, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	line, err := c.CreateFile(fLine, dfs.Btree, partitions, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	lpIdx, err := c.CreateFile(fLPartIdx, dfs.Btree, partitions, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}

	fx := &testFixture{cluster: c, nParts: nParts, nPer: nPer, prices: map[int64]int64{}, ctx: ctx, interpPS: interpPart}

	for i := int64(0); i < int64(nParts); i++ {
		pk := keycodec.Int64(i)
		price := i * 10
		fx.prices[i] = price
		rec := lake.Record{Key: pk, Data: []byte(fmt.Sprintf("%d|%d", i, price))}
		if err := dfs.AppendRouted(ctx, part, pk, rec); err != nil {
			t.Fatal(err)
		}
		// Local secondary index on price: co-partitioned with part
		// (partition key = p_key), entry key = price.
		idxRec := lake.Record{Key: keycodec.Int64(price), Data: lake.EncodeIndexEntry(pk, pk)}
		if err := dfs.AppendRouted(ctx, priceIdx, pk, idxRec); err != nil {
			t.Fatal(err)
		}
	}
	lineNo := int64(0)
	for i := int64(0); i < int64(nParts); i++ {
		for j := 0; j < nPer; j++ {
			lineNo++
			order := lineNo * 7 // arbitrary order key
			ok := keycodec.Int64(order)
			lk := keycodec.Tuple(keycodec.Int64(order), keycodec.Int64(int64(j)))
			rec := lake.Record{Key: lk, Data: []byte(fmt.Sprintf("%d|%d|%d", order, j, i))}
			if err := dfs.AppendRouted(ctx, line, ok, rec); err != nil {
				t.Fatal(err)
			}
			// Global index on l_partkey: partitioned by l_partkey,
			// entries point at lineitem's partition key (l_order).
			partKey := keycodec.Int64(i)
			idxRec := lake.Record{Key: partKey, Data: lake.EncodeIndexEntry(ok, lk)}
			if err := dfs.AppendRouted(ctx, lpIdx, partKey, idxRec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fx
}

// joinJob builds the paper's Fig. 3/4 job: parts with price in [lo, hi]
// joined to their lineitems through the global l_partkey index.
func (fx *testFixture) joinJob(loPrice, hiPrice int64, broadcast bool) *Job {
	seeds := []lake.Pointer{{File: fPriceIdx, NoPart: true, Key: keycodec.Int64(loPrice), EndKey: keycodec.Int64(hiPrice)}}
	job, err := NewJob("part-line-join", seeds,
		RangeDeref{File: fPriceIdx}, // Dereferencer-0
		EntryRef{Target: fPart},     // Referencer-1
		LookupDeref{File: fPart},    // Dereferencer-1
		FieldRef{Target: fLPartIdx, Interp: interpPart, Field: "p_key", Encode: encodeIntField, Broadcast: broadcast}, // Referencer-2
		LookupDeref{File: fLPartIdx}, // Dereferencer-2
		EntryRef{Target: fLine},      // Referencer-3
		LookupDeref{File: fLine},     // Dereferencer-3
	)
	if err != nil {
		panic(err)
	}
	return job
}

// expectedJoinCount is the oracle: parts with price in range × nPer.
func (fx *testFixture) expectedJoinCount(lo, hi int64) int64 {
	var n int64
	for _, price := range fx.prices {
		if price >= lo && price <= hi {
			n += int64(fx.nPer)
		}
	}
	return n
}

func TestJobValidation(t *testing.T) {
	d := LookupDeref{File: "f"}
	r := EntryRef{Target: "f"}
	seed := []lake.Pointer{{File: "f", Key: "k", PartKey: "k"}}

	cases := []struct {
		name string
		job  *Job
	}{
		{"no stages", &Job{Name: "j", Seeds: seed}},
		{"no seeds", &Job{Name: "j", Stages: []Stage{{Deref: d}}}},
		{"starts with ref", &Job{Name: "j", Seeds: seed, Stages: []Stage{{Ref: r}}}},
		{"ends with ref", &Job{Name: "j", Seeds: seed, Stages: []Stage{{Deref: d}, {Ref: r}}}},
		{"double set", &Job{Name: "j", Seeds: seed, Stages: []Stage{{Deref: d, Ref: r}}}},
		{"empty stage", &Job{Name: "j", Seeds: seed, Stages: []Stage{{}}}},
		{"two derefs in a row", &Job{Name: "j", Seeds: seed, Stages: []Stage{{Deref: d}, {Deref: d}, {Deref: d}}}},
	}
	for _, c := range cases {
		if err := c.job.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
	good := &Job{Name: "j", Seeds: seed, Stages: []Stage{{Deref: d}, {Ref: r}, {Deref: d}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
}

func TestNewJobRejectsWrongType(t *testing.T) {
	if _, err := NewJob("j", []lake.Pointer{{File: "f"}}, "not a function"); err == nil {
		t.Error("NewJob with a string stage should fail")
	}
}

func TestSelectionJob(t *testing.T) {
	fx := newFixture(t, 3, 20, 0)
	// Select parts with price in [50, 120] via the price index:
	// prices are multiples of 10, so parts 5..12 → 8 records.
	seeds := []lake.Pointer{{File: fPriceIdx, NoPart: true, Key: keycodec.Int64(50), EndKey: keycodec.Int64(120)}}
	job, err := NewJob("selection", seeds,
		RangeDeref{File: fPriceIdx},
		EntryRef{Target: fPart},
		LookupDeref{File: fPart},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 8 {
		t.Fatalf("selection count = %d, want 8", res.Count)
	}
	if len(res.Records) != 8 {
		t.Fatalf("KeepRecords gathered %d records", len(res.Records))
	}
	for _, r := range res.Records {
		f, err := interpPart(r)
		if err != nil {
			t.Fatal(err)
		}
		price, _ := strconv.ParseInt(get(f, "p_price"), 10, 64)
		if price < 50 || price > 120 {
			t.Errorf("record with price %d escaped the range", price)
		}
	}
}

func TestJoinJobSMPE(t *testing.T) {
	fx := newFixture(t, 3, 15, 4)
	job := fx.joinJob(20, 90, false)
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := fx.expectedJoinCount(20, 90); res.Count != want {
		t.Fatalf("join count = %d, want %d", res.Count, want)
	}
}

func TestJoinJobPlainMatchesSMPE(t *testing.T) {
	fx := newFixture(t, 2, 12, 3)
	job := fx.joinJob(0, 1000, false)
	smpe, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ExecutePlain(fx.ctx, job, fx.cluster, fx.cluster, Options{KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if smpe.Count != plain.Count {
		t.Fatalf("SMPE count %d != plain count %d", smpe.Count, plain.Count)
	}
	sortRecs := func(rs []lake.Record) {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Key != rs[j].Key {
				return rs[i].Key < rs[j].Key
			}
			return string(rs[i].Data) < string(rs[j].Data)
		})
	}
	sortRecs(smpe.Records)
	sortRecs(plain.Records)
	for i := range smpe.Records {
		if smpe.Records[i].Key != plain.Records[i].Key || string(smpe.Records[i].Data) != string(plain.Records[i].Data) {
			t.Fatalf("record %d differs between SMPE and plain", i)
		}
	}
}

func TestBroadcastJoinMatchesRouted(t *testing.T) {
	fx := newFixture(t, 3, 10, 3)
	routed, err := ExecuteSMPE(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := ExecuteSMPE(fx.ctx, fx.joinJob(0, 1000, true), fx.cluster, fx.cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if routed.Count != bcast.Count {
		t.Fatalf("broadcast join count %d != routed %d", bcast.Count, routed.Count)
	}
	if want := fx.expectedJoinCount(0, 1000); routed.Count != want {
		t.Fatalf("join count = %d, want %d", routed.Count, want)
	}
}

func TestFilterDropsRecords(t *testing.T) {
	fx := newFixture(t, 2, 10, 0)
	onlyEven := func(rec lake.Record) (bool, error) {
		f, err := interpPart(rec)
		if err != nil {
			return false, err
		}
		k, _ := strconv.ParseInt(get(f, "p_key"), 10, 64)
		return k%2 == 0, nil
	}
	seeds := []lake.Pointer{{File: fPriceIdx, NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(1000)}}
	job, err := NewJob("filtered", seeds,
		RangeDeref{File: fPriceIdx},
		EntryRef{Target: fPart},
		LookupDeref{File: fPart, Filter: onlyEven},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 5 {
		t.Fatalf("filtered count = %d, want 5", res.Count)
	}
}

func TestFilterErrorPropagates(t *testing.T) {
	fx := newFixture(t, 2, 5, 0)
	boom := errors.New("bad filter")
	seeds := []lake.Pointer{{File: fPriceIdx, NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(1000)}}
	job, _ := NewJob("filter-err", seeds,
		RangeDeref{File: fPriceIdx, Filter: func(lake.Record) (bool, error) { return false, boom }},
	)
	_, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("filter error = %v, want %v", err, boom)
	}
}

func TestEachCallback(t *testing.T) {
	fx := newFixture(t, 2, 10, 2)
	var mu sync.Mutex
	var count int64
	job := fx.joinJob(0, 1000, false)
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Each: func(node int, rec lake.Record) error {
		mu.Lock()
		count++
		mu.Unlock()
		if node < 0 || node >= fx.cluster.NumNodes() {
			return fmt.Errorf("bad node %d", node)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if count != res.Count {
		t.Fatalf("Each saw %d records, result counted %d", count, res.Count)
	}
}

func TestEachErrorFailsJob(t *testing.T) {
	fx := newFixture(t, 2, 10, 2)
	boom := errors.New("sink failed")
	job := fx.joinJob(0, 1000, false)
	_, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{Each: func(int, lake.Record) error { return boom }})
	if !errors.Is(err, boom) {
		t.Fatalf("Each error = %v, want %v", err, boom)
	}
}

func TestDereferenceFaultPropagates(t *testing.T) {
	fx := newFixture(t, 2, 10, 2)
	boom := errors.New("disk on fire")
	fx.fault(fLine, 0, boom)
	job := fx.joinJob(0, 1000, false)
	done := make(chan error, 1)
	go func() {
		_, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("fault = %v, want %v", err, boom)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SMPE deadlocked on storage fault")
	}
}

func TestReferencerErrorPropagates(t *testing.T) {
	fx := newFixture(t, 2, 5, 1)
	seeds := []lake.Pointer{{File: fPriceIdx, NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(1000)}}
	boom := errors.New("ref exploded")
	job, _ := NewJob("ref-err", seeds,
		RangeDeref{File: fPriceIdx},
		FuncRef{Label: "boom", Fn: func(*TaskCtx, lake.Record) ([]lake.Pointer, error) { return nil, boom }},
		LookupDeref{File: fPart},
	)
	_, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("referencer error = %v, want %v", err, boom)
	}
}

func TestMissingFileError(t *testing.T) {
	fx := newFixture(t, 1, 3, 0)
	seeds := []lake.Pointer{{File: "ghost", NoPart: true, Key: "a", EndKey: "z"}}
	job, _ := NewJob("ghost", seeds, RangeDeref{File: "ghost"})
	_, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{})
	if !errors.Is(err, lake.ErrNoSuchFile) {
		t.Fatalf("missing file error = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	fx := newFixture(t, 2, 50, 10)
	ctx, cancel := context.WithCancel(fx.ctx)
	cancel() // cancel before start: must return promptly with an error
	job := fx.joinJob(0, 10000, false)
	done := make(chan error, 1)
	go func() {
		_, err := Execute(ctx, job, fx.cluster, fx.cluster, Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled job returned nil error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job did not return")
	}
}

func TestStageTaskCounts(t *testing.T) {
	fx := newFixture(t, 2, 10, 3)
	job := fx.joinJob(0, 1000, false)
	// MaxBatch 1 pins the one-task-per-pointer granularity this test is
	// about; batched task counts are covered in batch_test.go.
	res, err := ExecuteSMPE(fx.ctx, job, fx.cluster, fx.cluster, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StageTasks) != len(job.Stages) {
		t.Fatalf("StageTasks has %d entries, want %d", len(res.StageTasks), len(job.Stages))
	}
	// Stage 0 runs once per node (broadcast seed).
	if res.StageTasks[0] != int64(fx.cluster.NumNodes()) {
		t.Errorf("stage 0 tasks = %d, want %d", res.StageTasks[0], fx.cluster.NumNodes())
	}
	// Inline referencers never appear as tasks.
	if res.StageTasks[1] != 0 || res.StageTasks[3] != 0 {
		t.Errorf("inline referencer stages recorded tasks: %v", res.StageTasks)
	}
	// Every part record fetch is one stage-2 task.
	if res.StageTasks[2] != int64(fx.nParts) {
		t.Errorf("stage 2 tasks = %d, want %d", res.StageTasks[2], fx.nParts)
	}
	// Final stage: one task per lineitem (one pointer each).
	if res.StageTasks[6] != int64(fx.nParts*fx.nPer) {
		t.Errorf("stage 6 tasks = %d, want %d", res.StageTasks[6], fx.nParts*fx.nPer)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestNonInlineReferencersMatch(t *testing.T) {
	fx := newFixture(t, 2, 8, 2)
	job := fx.joinJob(0, 1000, false)
	inline, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 64, InlineReferencers: true})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 64, InlineReferencers: false})
	if err != nil {
		t.Fatal(err)
	}
	if inline.Count != queued.Count {
		t.Fatalf("inline count %d != queued count %d", inline.Count, queued.Count)
	}
	// Non-inline mode must have recorded referencer tasks.
	if queued.StageTasks[1] == 0 {
		t.Error("non-inline mode recorded no referencer tasks")
	}
}

func TestSeedRangeHashBroadcasts(t *testing.T) {
	fx := newFixture(t, 2, 3, 0)
	seeds, err := SeedRange(fx.cluster, fPriceIdx, keycodec.Int64(0), keycodec.Int64(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 || !seeds[0].NoPart {
		t.Fatalf("hash-partitioned index seed = %+v, want one broadcast seed", seeds)
	}
}

func TestSeedRangeRangePartitioned(t *testing.T) {
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	rp := lake.NewRangePartitioner(keycodec.Int64(100), keycodec.Int64(200))
	f, err := c.CreateFile("gidx", dfs.Btree, 3, rp)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i += 10 {
		k := keycodec.Int64(i)
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: lake.EncodeIndexEntry(k, k)}); err != nil {
			t.Fatal(err)
		}
	}
	seeds, err := SeedRange(c, "gidx", keycodec.Int64(50), keycodec.Int64(250))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 {
		t.Fatalf("range seeds = %d, want 3 (one per overlapping partition)", len(seeds))
	}
	// Seeds must route to distinct partitions 0,1,2.
	seen := map[int]bool{}
	for _, s := range seeds {
		p, bc := lake.ResolvePartition(f, s)
		if bc {
			t.Fatal("range seed must not broadcast")
		}
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Fatalf("seeds covered partitions %v, want 3 distinct", seen)
	}
	// Executing the range over the partitioned index finds all 21 entries.
	job, _ := NewJob("gscan", seeds, RangeDeref{File: "gidx"})
	res, err := ExecuteSMPE(ctx, job, c, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 21 {
		t.Fatalf("partitioned range count = %d, want 21", res.Count)
	}
	if _, err := SeedRange(c, "missing", "a", "b"); err == nil {
		t.Error("SeedRange on missing file should fail")
	}
}

// TestPropertyEnginesAgree is the core equivalence property: for random
// data sizes, cluster shapes, and price ranges, SMPE and plain execution
// return exactly the oracle join cardinality.
func TestPropertyEnginesAgree(t *testing.T) {
	f := func(nodes, nParts, nPer uint8, lo, hi uint16) bool {
		nn := int(nodes%4) + 1
		np := int(nParts%20) + 1
		pp := int(nPer%4) + 1
		l, h := int64(lo%300), int64(hi%300)
		if l > h {
			l, h = h, l
		}
		fx := newFixture(t, nn, np, pp)
		want := fx.expectedJoinCount(l, h)
		job := fx.joinJob(l, h, false)
		smpe, err := Execute(fx.ctx, job, fx.cluster, fx.cluster, Options{Threads: 32})
		if err != nil {
			return false
		}
		plain, err := ExecutePlain(fx.ctx, job, fx.cluster, fx.cluster, Options{})
		if err != nil {
			return false
		}
		return smpe.Count == want && plain.Count == want
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestJobDescribe(t *testing.T) {
	fx := newFixture(t, 1, 2, 1)
	job := fx.joinJob(0, 10, false)
	desc := job.Describe()
	if !strings.Contains(desc, "stage 0: Dereferencer RangeDeref") {
		t.Errorf("Describe missing stage 0: %s", desc)
	}
	if !strings.Contains(desc, "EntryRef(part)") || !strings.Contains(desc, "Referencer") {
		t.Errorf("Describe missing referencer stages: %s", desc)
	}
	if strings.Count(desc, "stage ") != len(job.Stages) {
		t.Errorf("Describe has wrong stage count: %s", desc)
	}
}
