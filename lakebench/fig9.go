package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"lakeharbor/internal/claims"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sched"
)

// fig9 is Fig. 9 under multi-tenancy: the claims case study's three
// queries, run as one Q1→Q2→Q3 cycle per job by two tenants of weight 1
// and 3 — one closed-loop client each — on one shared 16-worker scheduler.
// It is the only workload where internal/sched runs, and its records are
// one large nested claim each rather than five joined rows.
type fig9 struct {
	sz     sizes
	corpus *claims.Corpus
	want   [][2]int64 // per query: claims, expense

	lake  *dfs.Cluster
	sched *sched.Scheduler
	acc   *engineAcc
}

var fig9Tenants = []sched.TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 3}}

func (w *fig9) freshPerRep() bool { return false }

func (w *fig9) describe() string {
	return fmt.Sprintf("%d claims on %d nodes, tenants a:1 b:3 on 16 shared workers, a job is Q1+Q2+Q3", w.sz.Claims, w.sz.Nodes)
}
func (w *fig9) variants() []variant { return nil }

func (w *fig9) prepare(seed int64, sz sizes) error {
	w.sz = sz
	w.corpus = claims.Generate(claims.Config{Claims: sz.Claims, Seed: seed})
	w.want = nil
	for _, q := range claims.Queries {
		n, exp := w.corpus.Oracle(q.Disease, q.MedicineClass)
		if n == 0 {
			return fmt.Errorf("fig9: %s matches no claim in a corpus of %d", q.Name, sz.Claims)
		}
		w.want = append(w.want, [2]int64{n, exp})
	}
	return nil
}

func (w *fig9) setup(ctx context.Context) error {
	w.lake = dfs.NewCluster(dfs.Config{Nodes: w.sz.Nodes})
	if err := claims.LoadLake(ctx, w.lake, w.corpus, 0); err != nil {
		return err
	}
	var err error
	w.sched, err = sched.New(sched.Options{Workers: 16, ShedDepth: -1}, fig9Tenants...)
	return err
}

func (w *fig9) teardown() {
	w.sched.Close()
	w.lake, w.sched = nil, nil
}

// opts is what a lakeserve tenant gets: SMPE defaults on the shared pool.
func (w *fig9) opts(tenant string) core.Options {
	return core.Options{InlineReferencers: true, MaxBatch: core.DefaultMaxBatch, Tenant: tenant, Scheduler: w.sched}
}

func (w *fig9) rep(ctx context.Context, d time.Duration, _ variant, tr *tracer) repStats {
	if tr != nil {
		w.acc = &engineAcc{}
	}
	before := w.lake.TotalMetrics()
	s := closedLoop(d, len(fig9Tenants), 1, func() int64 { return recordAccesses(w.lake) }, func(client int) error {
		opts := w.opts(fig9Tenants[client].Name)
		if tr == nil {
			for i, q := range claims.Queries {
				res, err := claims.RunReDe(ctx, w.lake, q, opts)
				if err != nil {
					return fmt.Errorf("%s: %w", q.Name, err)
				}
				if err := w.check(i, res.Claims, res.Expense); err != nil {
					return err
				}
			}
			return nil
		}
		jctx, done := tr.beginJob(ctx)
		defer done()
		jt, root := spanFrom(jctx)
		opts.Scheduler = tracedSched{w.sched, jt, root}
		for i, q := range claims.Queries {
			if err := w.tracedQuery(jctx, i, q, opts); err != nil {
				return err
			}
		}
		return nil
	})
	if tr != nil {
		s.extra = map[string]float64{}
		dfsInto(s.extra, w.lake.TotalMetrics().Sub(before), float64(s.jobs()))
	}
	return s
}

func (w *fig9) check(i int, gotClaims, gotExpense int64) error {
	if gotClaims != w.want[i][0] || gotExpense != w.want[i][1] {
		return fmt.Errorf("%s: (%d claims, %d points), oracle (%d, %d)",
			claims.Queries[i].Name, gotClaims, gotExpense, w.want[i][0], w.want[i][1])
	}
	return nil
}

// tracedQuery runs the job claims.RunReDe composes, spelled out here so the
// traced repetition can wrap its stage functions and filter — RunReDe
// builds its job internally and exposes no seam for that. The untraced
// repetitions call RunReDe itself; both are held to Corpus.Oracle.
func (w *fig9) tracedQuery(ctx context.Context, i int, q claims.Query, opts core.Options) error {
	parse := func(rec lake.Record) (*claims.Claim, error) {
		id, err := keycodec.DecodeInt64(rec.Key)
		if err != nil {
			return nil, err
		}
		return claims.Parse(id, rec.Data)
	}
	k := claims.DiseaseKey(q.Disease)
	job, err := core.NewJob("claims-"+q.Name,
		[]lake.Pointer{{File: claims.IdxClaimsDise, PartKey: k, Key: k}},
		core.LookupDeref{File: claims.IdxClaimsDise},
		core.EntryRef{Target: claims.FileClaims},
		core.LookupDeref{File: claims.FileClaims, Filter: func(rec lake.Record) (bool, error) {
			c, err := parse(rec)
			if err != nil {
				return false, err
			}
			return c.HasMedicineClass(q.MedicineClass), nil
		}},
	)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var count, expense int64
	opts.Each = func(_ int, rec lake.Record) error {
		c, err := parse(rec)
		if err != nil {
			return err
		}
		mu.Lock()
		count++
		expense += c.HO.Points
		mu.Unlock()
		return nil
	}
	res, err := core.Execute(ctx, wrapJob(job), w.lake, w.lake, opts)
	if err != nil {
		return fmt.Errorf("%s: %w", q.Name, err)
	}
	w.acc.add(res.Trace)
	return w.check(i, count, expense)
}

func (w *fig9) layers(ctx context.Context, r *runData) map[string]float64 {
	m := tracedLayers(r, w.acc)

	wait := sorted(r.tr.samples[spanWait])
	m["sched.submit_to_run_us_p50"] = percentile(wait, 0.5)
	m["sched.submit_to_run_us_p90"], _ = tailPercentile(wait, 0.9)
	m["sched.submits_per_job"] = r.tr.perJob(r.tr.count, spanWait)
	st := w.sched.Stats()
	if st.WindowTotal == 0 {
		r.notes = append(r.notes, "sched.share_err: the tenants were never backlogged together, so the scheduler has no fairness window to report")
	}
	for _, t := range st.Tenants {
		if t.Name == "b" && st.WindowTotal > 0 {
			m["sched.share_err"] = math.Abs(t.WindowShare - t.FairShare)
		}
	}
	schedProbe(m)

	// Fig. 9 itself: the same three queries on the normalized warehouse,
	// alone on the machine, against the lake's record accesses.
	wh := dfs.NewCluster(dfs.Config{Nodes: w.sz.Nodes})
	if err := claims.LoadWarehouse(ctx, wh, w.corpus, 0); err != nil {
		r.notes = append(r.notes, "fig9.rede_norm: load warehouse: "+err.Error())
		return m
	}
	var rede, dw int64
	for i, q := range claims.Queries {
		opts := core.Options{InlineReferencers: true, MaxBatch: core.DefaultMaxBatch}
		a, err := claims.RunReDe(ctx, w.lake, q, opts)
		if err == nil {
			err = w.check(i, a.Claims, a.Expense)
		}
		b, err2 := claims.RunWarehouse(ctx, wh, q, opts)
		if err2 == nil {
			err2 = w.check(i, b.Claims, b.Expense)
		}
		if err != nil || err2 != nil {
			r.notes = append(r.notes, fmt.Sprintf("fig9.rede_norm: %s: rede %v, warehouse %v", q.Name, err, err2))
			return m
		}
		rede += a.RecordAccesses
		dw += b.RecordAccesses
	}
	m["fig9.rede_norm"] = float64(rede) / float64(dw)
	return m
}
