package claims

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
)

// Query is one of the case study's analytical questions: total medical
// expenses charged to claims that diagnose Disease and prescribe a medicine
// of MedicineClass.
type Query struct {
	Name          string
	Description   string
	Disease       string
	MedicineClass string
}

// The three queries of Fig. 9.
var (
	Q1 = Query{"Q1", "expenses of care prescribing antihypertensives for hypertension", DiseaseHypertension, ClassAntihyper}
	Q2 = Query{"Q2", "expenses of care prescribing antimicrobials to acne patients", DiseaseAcne, ClassAntimicrobial}
	Q3 = Query{"Q3", "expenses of care prescribing GLP-1 receptor medicines to diabetes patients", DiseaseDiabetes, ClassGLP1}
)

// Queries lists Q1–Q3 in order.
var Queries = []Query{Q1, Q2, Q3}

// Result reports one query execution, including the Fig. 9 metric.
type Result struct {
	Query Query
	// Claims is the number of distinct qualifying claims.
	Claims int64
	// Expense is their summed HO expense points.
	Expense int64
	// RecordAccesses counts every record touched on the cluster during
	// execution (Fig. 9's unit of comparison).
	RecordAccesses int64
	// Elapsed is wall-clock execution time.
	Elapsed time.Duration
	// Trace is the execution trace of the underlying job (nil for the
	// scan-based data-lake arm, which does not run through the executor).
	Trace *trace.Snapshot
}

// RunReDe answers q the LakeHarbor way: probe the post hoc disease index,
// dereference each whole raw claim once, and evaluate the medicine
// predicate with schema-on-read inside the claim — no joins.
func RunReDe(ctx context.Context, cluster *dfs.Cluster, q Query, opts core.Options) (*Result, error) {
	k := DiseaseKey(q.Disease)
	job, err := core.NewJob("claims-"+q.Name,
		[]lake.Pointer{{File: IdxClaimsDise, PartKey: k, Key: k}},
		core.LookupDeref{File: IdxClaimsDise},
		core.EntryRef{Target: FileClaims},
		core.LookupDeref{File: FileClaims},
	)
	if err != nil {
		return nil, err
	}

	// The job emits every claim that diagnoses the disease, and Each walks
	// each one once: one probe answers the medicine class and the expense
	// together, and only a claim with the class counts. Each, not a Filter,
	// is where the answer is added up because it runs exactly once per
	// emitted record; a filter re-runs when a failed batch is split and
	// retried.
	var mu sync.Mutex
	expense := int64(0)
	count := int64(0)
	opts.Each = func(_ int, rec lake.Record) error {
		p, err := probeRecord(rec, q.MedicineClass, "")
		if err != nil || !p.hasClass {
			return err
		}
		mu.Lock()
		count++
		expense += p.ho.Points
		mu.Unlock()
		return nil
	}

	before := cluster.TotalMetrics()
	res, err := core.Execute(ctx, job, cluster, cluster, opts)
	if err != nil {
		return nil, err
	}
	diff := cluster.TotalMetrics().Sub(before)
	return &Result{
		Query:          q,
		Claims:         count,
		Expense:        expense,
		RecordAccesses: diff.RecordAccesses(),
		Elapsed:        res.Elapsed,
		Trace:          res.Trace,
	}, nil
}

// RunWarehouse answers q the normalized-warehouse way: probe the disease
// index, fetch the disease rows, join to the medicines of each claim, then
// join to the claims table for the expense — all with the same fine-grained
// massively parallel executor (the paper's comparator employs FMPE too;
// only the data model differs). The extra record accesses of the join path
// are exactly what Fig. 9 measures.
func RunWarehouse(ctx context.Context, cluster *dfs.Cluster, q Query, opts core.Options) (*Result, error) {
	interpDM := core.Composite(InterpWDisease, InterpWMedicine)
	classFilter := func(rec lake.Record) (bool, error) {
		class, err := interpDM.Field(rec, "med_class")
		return class == q.MedicineClass, err
	}
	k := DiseaseKey(q.Disease)
	job, err := core.NewJob("warehouse-"+q.Name,
		[]lake.Pointer{{File: IdxWDiseCode, PartKey: k, Key: k}},
		core.LookupDeref{File: IdxWDiseCode},
		core.EntryRef{Target: FileWDiseases},
		core.LookupDeref{File: FileWDiseases},
		core.FieldRef{Target: FileWMedicines, Interp: InterpWDisease, Field: "claim_id",
			Encode: EncodeClaimID, Prefix: true, Carry: core.CarryRecord},
		core.RangeDeref{File: FileWMedicines, Combine: true, Filter: classFilter},
		core.FieldRef{Target: FileWClaims, Interp: interpDM, Field: "claim_id",
			Encode: EncodeClaimID, Carry: core.CarryComposite},
		core.LookupDeref{File: FileWClaims, Combine: true},
	)
	if err != nil {
		return nil, err
	}

	// A claim with several qualifying medicine rows appears several times
	// in the join result; deduplicate for the EXISTS semantics of the
	// query, as the SQL plan's final DISTINCT would.
	interpAll := core.Composite(InterpWDisease, InterpWMedicine, InterpWClaim)
	var mu sync.Mutex
	seen := map[string]bool{}
	expense := int64(0)
	opts.Each = func(_ int, rec lake.Record) error {
		f, err := interpAll(rec)
		if err != nil {
			return err
		}
		id, _ := f.Get("claim_id")
		raw, _ := f.Get("expense")
		mu.Lock()
		defer mu.Unlock()
		if seen[id] {
			return nil
		}
		seen[id] = true
		e, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return fmt.Errorf("claims: bad expense %q: %w", raw, err)
		}
		expense += e
		return nil
	}

	before := cluster.TotalMetrics()
	res, err := core.Execute(ctx, job, cluster, cluster, opts)
	if err != nil {
		return nil, err
	}
	diff := cluster.TotalMetrics().Sub(before)
	return &Result{
		Query:          q,
		Claims:         int64(len(seen)),
		Expense:        expense,
		RecordAccesses: diff.RecordAccesses(),
		Elapsed:        res.Elapsed,
		Trace:          res.Trace,
	}, nil
}

// RunDataLake answers q the plain data-lake way — the arm the paper's
// Fig. 9 footnote omits "because it was a lot slower than the others": a
// full scan of every raw claim with statically-parallel scan workers,
// parsing each claim with schema-on-read and filtering. It exists to
// complete the three-system comparison of §IV; its record accesses equal
// the corpus size regardless of selectivity.
func RunDataLake(ctx context.Context, cluster *dfs.Cluster, q Query, coresPerNode int) (*Result, error) {
	eng := baseline.New(cluster, coresPerNode)
	before := cluster.TotalMetrics()
	start := time.Now()
	var (
		mu      sync.Mutex
		count   int64
		expense int64
	)
	_, err := eng.Scan(ctx, FileClaims, func(rec lake.Record) (bool, error) {
		p, err := probeRecord(rec, q.MedicineClass, q.Disease)
		if err != nil {
			return false, err
		}
		if p.hasDisease && p.hasClass {
			mu.Lock()
			count++
			expense += p.ho.Points
			mu.Unlock()
		}
		return false, nil // nothing needs materializing
	})
	if err != nil {
		return nil, err
	}
	diff := cluster.TotalMetrics().Sub(before)
	return &Result{
		Query:          q,
		Claims:         count,
		Expense:        expense,
		RecordAccesses: diff.RecordAccesses(),
		Elapsed:        time.Since(start),
	}, nil
}
