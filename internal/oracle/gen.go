package oracle

// The scenario generator: one int64 seed expands into a random cluster
// (nodes, partitions, cost model), a random dataset (key kinds, duplicate
// secondary-index values, partitioners), a random multi-stage job over it,
// and the expected answer computed through internal/baseline — a scan
// engine that shares no execution code with the SMPE executor, which is
// what makes the differential comparison an oracle rather than a tautology.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/chaos"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

// File names used by every generated scenario.
const (
	baseFile = "base"
	idxFile  = "base_val_idx"
	dimFile  = "dim"
)

// scenario is one fully-materialized differential test case.
type scenario struct {
	seed    int64
	desc    string
	cluster *dfs.Cluster
	job     *core.Job
	// expected is the answer multiset (see rowKey), computed via baseline.
	expected      map[string]int
	expectedCount int
	// target lists the faultable surface for chaos.Compile.
	target chaos.Target
	// Executor options the scenario was drawn with.
	threads  int
	maxBatch int
	// Seed routing split, for the stage-0 pointer-conservation invariant.
	routedSeeds    int
	broadcastSeeds int
	// ptrFanout maps a deref stage to the expected pointers-per-emit
	// multiplier of the referencer feeding it: 1 for routed pointers
	// (default), NumNodes when that referencer broadcasts.
	ptrFanout map[int]int
	// lcSpec, for index-bearing forms, is an access-method spec whose build
	// reproduces the hand-built index entry for entry (same keys, payloads,
	// partition count, and partitioner), so the managed and recovered
	// structures can replace the index without changing the job's seeds or
	// answer. Nil for forms without an index.
	lcSpec *indexer.Spec
	// lo, hi are the val bounds of the range forms and broadcast marks the
	// join form's broadcast variant — the mirror script is rendered from
	// them.
	lo, hi    int
	broadcast bool
}

// rowKey is the multiset identity of one result record.
func rowKey(r lake.Record) string {
	return r.Key + "\x1f" + string(r.Data)
}

func multisetOf(recs []lake.Record) map[string]int {
	m := make(map[string]int, len(recs))
	for _, r := range recs {
		m[rowKey(r)]++
	}
	return m
}

// parseVal extracts the numeric val column from a "<id>|<val>" payload.
func parseVal(data []byte) (int, error) {
	i := bytes.IndexByte(data, '|')
	if i < 0 {
		return 0, fmt.Errorf("oracle: payload %q has no field separator", data)
	}
	return strconv.Atoi(string(data[i+1:]))
}

// interpBase is the schema-on-read interpreter for base rows.
var interpBase = core.Delimited("base", '|', "id", "val")

// interpJoined reads a combined {base ⊕ dim} record of the join form. Both
// segments name "val", so a read of it takes the dimension's (last wins).
var interpJoined = core.Composite(interpBase, core.Delimited("dim", '|', "dim", "val"))

// joinKeeps is the join form's optional predicate over a base row's id and a
// dimension row's name "d<j>": the pair passes unless the sum of their last
// digits is a multiple of mod.
func joinKeeps(id, dim string, mod int) bool {
	return (int(id[len(id)-1])+int(dim[len(dim)-1]))%mod != 0
}

// encodeVal appends the val column's ordered key (the index key) to dst.
func encodeVal(dst []byte, value string) ([]byte, error) {
	v, err := strconv.ParseInt(value, 10, 64)
	if err != nil {
		return dst, err
	}
	return keycodec.AppendInt64(dst, v), nil
}

// generate expands a seed into a scenario. Everything random is drawn from
// the one rng in a fixed order, so the same seed always produces the same
// cluster, data, and job.
func generate(ctx context.Context, seed int64) (*scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{seed: seed, expected: map[string]int{}}

	nodes := 1 + rng.Intn(4)
	parts := 1 + rng.Intn(5)
	cost := sim.CostModel{}
	costName := "free"
	if rng.Float64() < 0.5 {
		cost = sim.CostModel{
			LookupLatency: time.Duration(1+rng.Intn(10)) * time.Microsecond,
			ScanPerRecord: time.Duration(rng.Intn(300)) * time.Nanosecond,
			NetworkRTT:    time.Duration(rng.Intn(10)) * time.Microsecond,
			BatchPerKey:   time.Duration(rng.Intn(2)) * time.Microsecond,
			QueueDepth:    4 + rng.Intn(12),
			Spindles:      2 + rng.Intn(6),
		}
		costName = "priced"
	}
	sc.cluster = dfs.NewCluster(dfs.Config{Nodes: nodes, Cost: cost})
	sc.threads = []int{4, 16, 64, core.DefaultThreads}[rng.Intn(4)]
	sc.maxBatch = []int{2, 3, 8, core.DefaultMaxBatch}[rng.Intn(4)]

	// Dataset: n base rows "id|val" with val drawn from a small domain so
	// the secondary index holds duplicates.
	n := 20 + rng.Intn(120)
	valDomain := 1 + rng.Intn(12)
	keyKind := []string{"int64", "string", "composite"}[rng.Intn(3)]
	pk := func(i int) lake.Key {
		switch keyKind {
		case "string":
			return keycodec.String(fmt.Sprintf("row-%05d", i))
		case "composite":
			return keycodec.Tuple(keycodec.String(fmt.Sprintf("g%d", i%3)), keycodec.Int64(int64(i)))
		default:
			return keycodec.Int64(int64(i) * 7) // spaced: range bounds fall between keys
		}
	}
	pks := make([]lake.Key, n)
	vals := make([]int, n)
	for i := range pks {
		pks[i] = pk(i)
		vals[i] = rng.Intn(valDomain)
	}

	basePart := samplePartitioner(rng, parts, pks)
	bf, err := sc.cluster.CreateFile(baseFile, dfs.Btree, parts, basePart)
	if err != nil {
		return nil, err
	}
	sc.target = chaos.Target{Nodes: nodes, Files: []chaos.FileInfo{{Name: baseFile, Partitions: parts}}}
	for i := 0; i < n; i++ {
		rec := lake.Record{Key: pks[i], Data: []byte(fmt.Sprintf("%d|%d", i, vals[i]))}
		if err := dfs.AppendRouted(ctx, bf, pks[i], rec); err != nil {
			return nil, err
		}
	}

	build := []func(*scenario, *rand.Rand, buildIn) error{
		buildPointLookups, buildIndexRange(false), buildIndexRange(true), buildBroadcastableJoin,
	}[rng.Intn(4)]
	in := buildIn{ctx: ctx, n: n, valDomain: valDomain, parts: parts, pks: pks, vals: vals, base: bf}
	if err := build(sc, rng, in); err != nil {
		return nil, err
	}

	for _, s := range sc.job.Seeds {
		if s.NoPart {
			sc.broadcastSeeds++
		} else {
			sc.routedSeeds++
		}
	}
	for _, c := range sc.expected {
		sc.expectedCount += c
	}
	sc.desc = fmt.Sprintf("form=%s nodes=%d parts=%d rows=%d keys=%s basePart=%s cost=%s threads=%d maxBatch=%d expect=%d",
		sc.job.Name, nodes, parts, n, keyKind, basePart.Name(), costName, sc.threads, sc.maxBatch, sc.expectedCount)
	return sc, nil
}

// buildIn carries the generated dataset into the per-form builders.
type buildIn struct {
	ctx       context.Context
	n         int
	valDomain int
	parts     int
	pks       []lake.Key
	vals      []int
	base      lake.File
}

// samplePartitioner picks hash or range partitioning; range bounds are
// evenly-spaced sampled keys so partitions are non-degenerate.
func samplePartitioner(rng *rand.Rand, parts int, keys []lake.Key) lake.Partitioner {
	if parts < 2 || rng.Float64() < 0.5 {
		return lake.HashPartitioner{}
	}
	sorted := append([]lake.Key(nil), keys...)
	sort.Strings(sorted)
	bounds := make([]lake.Key, 0, parts-1)
	for i := 1; i < parts; i++ {
		bounds = append(bounds, sorted[i*len(sorted)/parts])
	}
	return lake.NewRangePartitioner(bounds...)
}

// pickSeeds draws a deduplicated mix of existing and missing primary keys
// (a multiset answer must not depend on a key being seeded twice) as routed
// base-file seeds, and the set of keys drawn.
func pickSeeds(rng *rand.Rand, in buildIn) ([]lake.Pointer, map[lake.Key]bool) {
	m := 1 + rng.Intn(20)
	want := map[lake.Key]bool{}
	var seeds []lake.Pointer
	for len(seeds) < m {
		var k lake.Key
		if rng.Float64() < 0.7 {
			k = in.pks[rng.Intn(in.n)]
		} else {
			k = keycodec.Tuple(keycodec.String("missing"), keycodec.Int64(int64(in.n+rng.Intn(50))))
		}
		if want[k] {
			m-- // a duplicate draw shrinks the batch instead of spinning
			continue
		}
		want[k] = true
		seeds = append(seeds, lake.Pointer{File: baseFile, PartKey: k, Key: k})
	}
	return seeds, want
}

// buildPointLookups: form "point" — a single LookupDeref stage over a mixed
// hit/miss seed set. Exercises seed routing and the batch Lookup path.
func buildPointLookups(sc *scenario, rng *rand.Rand, in buildIn) error {
	seeds, want := pickSeeds(rng, in)
	job, err := core.NewJob("point", seeds, core.LookupDeref{File: baseFile})
	if err != nil {
		return err
	}
	sc.job = job
	return expectScan(sc, in, func(r lake.Record) (bool, error) { return want[r.Key], nil })
}

// appendIndex writes one index entry per base row into idx, routed by
// routeKey(i) through idx's partitioner. Entries carry (partKey, pk) of the
// indexed row and are stored under the encoded val — duplicates included.
func appendIndex(in buildIn, idx lake.File, routeKey func(i int) lake.Key) error {
	for i := 0; i < in.n; i++ {
		entry := lake.Record{
			Key:  keycodec.Int64(int64(in.vals[i])),
			Data: lake.EncodeIndexEntry(in.pks[i], in.pks[i]),
		}
		if err := dfs.AppendRouted(in.ctx, idx, routeKey(i), entry); err != nil {
			return err
		}
	}
	return nil
}

// lifecycleSpec builds the access-method spec equivalent to what
// appendIndex hand-wrote: each base row "id|val" is indexed under the
// encoded val with an entry carrying (pk, pk), the base being partitioned
// by its own primary key. Kind, partition count, and partitioner must match
// the generated index so the rebuild routes every entry to the same
// partition the hand-built one used, keeping precomputed seeds valid.
func lifecycleSpec(kind indexer.Kind, parts int, part lake.Partitioner) *indexer.Spec {
	return &indexer.Spec{
		Name:        idxFile,
		Base:        baseFile,
		Kind:        kind,
		Partitions:  parts,
		Partitioner: part,
		PartKey:     func(rec lake.Record) (lake.Key, error) { return rec.Key, nil },
		Keys: func(rec lake.Record) ([]lake.Key, error) {
			v, err := parseVal(rec.Data)
			if err != nil {
				return nil, err
			}
			return []lake.Key{keycodec.Int64(int64(v))}, nil
		},
	}
}

// valRange draws an inclusive [lo, hi] sub-range of the val domain.
func valRange(rng *rand.Rand, domain int) (int, int) {
	lo := rng.Intn(domain)
	return lo, lo + rng.Intn(domain-lo)
}

// buildIndexRange: forms "local-range" and "global-range" — a secondary
// index over val, probed with one [lo, hi] range: RangeDeref → EntryRef →
// LookupDeref. The local index is co-partitioned with the base table
// (routed by primary key) and probed with one broadcast seed; the global
// one is partitioned by the indexed value itself (hash or range) and seeded
// through core.SeedRange, so a range-partitioned index gets routed seeds.
func buildIndexRange(global bool) func(*scenario, *rand.Rand, buildIn) error {
	return func(sc *scenario, rng *rand.Rand, in buildIn) error {
		name, kind, parts, part := "local-range", indexer.Local, in.parts, in.base.Partitioner()
		route := func(i int) lake.Key { return in.pks[i] }
		if global {
			name, kind, parts = "global-range", indexer.Global, 1+rng.Intn(5)
			part = samplePartitioner(rng, parts, valKeys(in.valDomain))
			route = func(i int) lake.Key { return keycodec.Int64(int64(in.vals[i])) }
		}
		idx, err := sc.cluster.CreateFile(idxFile, dfs.Btree, parts, part)
		if err != nil {
			return err
		}
		sc.target.Files = append(sc.target.Files, chaos.FileInfo{Name: idxFile, Partitions: parts})
		if err := appendIndex(in, idx, route); err != nil {
			return err
		}
		sc.lcSpec = lifecycleSpec(kind, parts, part)
		sc.lo, sc.hi = valRange(rng, in.valDomain)
		lo, hi := keycodec.Int64(int64(sc.lo)), keycodec.Int64(int64(sc.hi))
		seeds := []lake.Pointer{{File: idxFile, NoPart: true, Key: lo, EndKey: hi}}
		if global {
			if seeds, err = core.SeedRange(sc.cluster, idxFile, lo, hi); err != nil {
				return err
			}
		}
		if sc.job, err = core.NewJob(name, seeds,
			core.RangeDeref{File: idxFile},
			core.EntryRef{Target: baseFile},
			core.LookupDeref{File: baseFile},
		); err != nil {
			return err
		}
		return expectScan(sc, in, predValBetween(sc.lo, sc.hi))
	}
}

// valKeys lists the encoded val domain, for partitioning by val.
func valKeys(domain int) []lake.Key {
	keys := make([]lake.Key, domain)
	for v := range keys {
		keys[v] = keycodec.Int64(int64(v))
	}
	return keys
}

// buildBroadcastableJoin: form "join" — point-fetch base rows, reference
// their val column into a dimension table (sometimes as a broadcast join),
// and combine: LookupDeref → FieldRef(Carry) → LookupDeref(Combine). Some
// seeds reach the dimension through FieldRef(Prefix) → RangeDeref(Combine),
// and some filter the combined record through interpJoined.
func buildBroadcastableJoin(sc *scenario, rng *rand.Rand, in buildIn) error {
	dimParts := 1 + rng.Intn(4)
	dim, err := sc.cluster.CreateFile(dimFile, dfs.Btree, dimParts, samplePartitioner(rng, dimParts, valKeys(in.valDomain)))
	if err != nil {
		return err
	}
	sc.target.Files = append(sc.target.Files, chaos.FileInfo{Name: dimFile, Partitions: dimParts})
	// Dimension rows: 0–3 per val, so some base rows join to nothing and
	// others fan out.
	for v := 0; v < in.valDomain; v++ {
		for j := 0; j < rng.Intn(4); j++ {
			k := keycodec.Int64(int64(v))
			rec := lake.Record{Key: k, Data: []byte(fmt.Sprintf("d%d|%d", j, v))}
			if err := dfs.AppendRouted(in.ctx, dim, k, rec); err != nil {
				return err
			}
		}
	}

	seeds, want := pickSeeds(rng, in)
	broadcast := rng.Float64() < 0.3
	sc.broadcast = broadcast
	// Drawn after every earlier choice, so each seed keeps the cluster, data
	// and seeds it drew before these two existed.
	viaRange, mod := rng.Float64() < 0.4, 2+rng.Intn(4) // mod > 3: no filter
	var filter core.Filter
	if mod <= 3 {
		filter = func(rec lake.Record) (bool, error) {
			f, err := interpJoined(rec)
			id, _ := f.Get("id")
			dim, _ := f.Get("dim")
			return err == nil && joinKeeps(id, dim, mod), err
		}
	}
	var dimDeref core.Dereferencer = core.LookupDeref{File: dimFile, Combine: true, Filter: filter}
	if viaRange {
		dimDeref = core.RangeDeref{File: dimFile, Combine: true, Filter: filter}
	}
	job, err := core.NewJob("join", seeds,
		core.LookupDeref{File: baseFile},
		core.FieldRef{
			Target:    dimFile,
			Interp:    interpBase,
			Field:     "val",
			Encode:    encodeVal,
			Broadcast: broadcast,
			Prefix:    viaRange,
			Carry:     core.CarryRecord,
		},
		dimDeref,
	)
	if err != nil {
		return err
	}
	sc.job = job
	if broadcast {
		// A broadcast referencer replicates every pointer to all nodes, so
		// the downstream deref stage legitimately sees emits × nodes.
		sc.ptrFanout = map[int]int{2: sc.cluster.NumNodes()}
	}

	// Expected: an independent in-memory hash join over baseline scans.
	eng := baseline.New(sc.cluster, 0)
	baseRows, err := eng.Scan(in.ctx, baseFile, func(r lake.Record) (bool, error) { return want[r.Key], nil })
	if err != nil {
		return err
	}
	dimRows, err := eng.Scan(in.ctx, dimFile, nil)
	if err != nil {
		return err
	}
	byVal := map[int][]lake.Record{}
	for _, d := range dimRows {
		v, err := parseVal(d.Data)
		if err != nil {
			return err
		}
		byVal[v] = append(byVal[v], d)
	}
	for _, b := range baseRows {
		v, err := parseVal(b.Data)
		if err != nil {
			return err
		}
		carry := lake.EncodeSegments(b.Data)
		id, _, _ := strings.Cut(string(b.Data), "|")
		for _, d := range byVal[v] {
			if dim, _, _ := strings.Cut(string(d.Data), "|"); filter != nil && !joinKeeps(id, dim, mod) {
				continue
			}
			sc.expected[rowKey(lake.Record{Key: d.Key, Data: lake.AppendSegment(carry, d.Data)})]++
		}
	}
	return nil
}

// predValBetween accepts base rows whose val column lies in [lo, hi].
func predValBetween(lo, hi int) baseline.Pred {
	return func(r lake.Record) (bool, error) {
		v, err := parseVal(r.Data)
		if err != nil {
			return false, err
		}
		return v >= lo && v <= hi, nil
	}
}

// expectScan fills sc.expected with a baseline scan of the base file under
// pred.
func expectScan(sc *scenario, in buildIn, pred baseline.Pred) error {
	rows, err := baseline.New(sc.cluster, 0).Scan(in.ctx, baseFile, pred)
	if err != nil {
		return err
	}
	for _, r := range rows {
		sc.expected[rowKey(r)]++
	}
	return nil
}
