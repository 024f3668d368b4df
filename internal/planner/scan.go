package planner

import (
	"context"
	"fmt"
	"time"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/core"
	"lakeharbor/internal/lake"
)

// executeScan runs the query as full scans + hash joins on the baseline
// engine. It returns the same logical rows as the compiled index plan —
// results are materialized as composite (segment-list) records, so callers
// can interpret either plan's output with the same Composite interpreter.
func (pl *Planner) executeScan(ctx context.Context, q *Query) (*core.Result, error) {
	start := time.Now()
	interps := []core.Interpreter{q.From.Interp}

	driverPred := func(rec lake.Record) (bool, error) {
		f, err := q.From.Interp(rec)
		if err != nil {
			return false, err
		}
		return q.DriverPred(f)
	}
	rows, err := pl.engine.Scan(ctx, q.From.Name, driverPred)
	if err != nil {
		return nil, err
	}
	tuples := baseline.TuplesOf(rows)

	for _, j := range q.Joins {
		build, err := pl.engine.Scan(ctx, j.To.Name, nil)
		if err != nil {
			return nil, err
		}
		toField := j.ToField
		if toField == "" {
			toField = j.To.Key
		}
		buildKey := func(rec lake.Record) (string, error) {
			v, err := j.To.Interp.Field(rec, toField)
			if err != nil {
				return "", fmt.Errorf("planner: %s: %w", j.To.Name, err)
			}
			k, err := j.To.Encode(nil, v)
			return string(k), err
		}
		probeInterps := append([]core.Interpreter(nil), interps...)
		probeKey := func(t baseline.Tuple) (string, error) {
			f, err := tupleFields(t, probeInterps)
			if err != nil {
				return "", err
			}
			v, ok := f.Get(j.FromField)
			if !ok {
				return "", fmt.Errorf("planner: no joined table has field %q", j.FromField)
			}
			k, err := j.To.Encode(nil, v)
			return string(k), err
		}
		tuples, err = baseline.HashJoin(tuples, probeKey, build, buildKey)
		if err != nil {
			return nil, err
		}
		interps = append(interps, j.To.Interp)
		if j.Pred != nil {
			tuples, err = filterTuples(tuples, interps, j.Pred)
			if err != nil {
				return nil, err
			}
		}
	}
	if q.Where != nil {
		tuples, err = filterTuples(tuples, interps, q.Where)
		if err != nil {
			return nil, err
		}
	}

	res := &core.Result{Count: int64(len(tuples)), Elapsed: time.Since(start)}
	if pl.SMPEOptions.KeepRecords {
		for _, t := range tuples {
			res.Records = append(res.Records, tupleRecord(t))
		}
	}
	return res, nil
}

// tupleFields interprets every record of the tuple and returns the view the
// index plan's Composite interpreter gives of the same row: the most
// recently joined table wins a shared field name.
func tupleFields(t baseline.Tuple, interps []core.Interpreter) (core.Fields, error) {
	if len(t) != len(interps) {
		return core.Fields{}, fmt.Errorf("planner: tuple of %d records, %d tables joined", len(t), len(interps))
	}
	parts := make([]core.Fields, len(t))
	for i, rec := range t {
		var err error
		if parts[i], err = interps[i](rec); err != nil {
			return core.Fields{}, err
		}
	}
	return core.MergeFields(parts), nil
}

func filterTuples(tuples []baseline.Tuple, interps []core.Interpreter, pred func(core.Fields) (bool, error)) ([]baseline.Tuple, error) {
	out := tuples[:0]
	for _, t := range tuples {
		f, err := tupleFields(t, interps)
		if err != nil {
			return nil, err
		}
		ok, err := pred(f)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// tupleRecord materializes a joined tuple as a composite record, byte-
// compatible with the index plan's output. Single-table rows stay raw, as
// the index plan's final LookupDeref leaves them.
func tupleRecord(t baseline.Tuple) lake.Record {
	if len(t) == 1 {
		return t[0]
	}
	segs := make([][]byte, len(t))
	for i, r := range t {
		segs[i] = r.Data
	}
	return lake.Record{Key: t[len(t)-1].Key, Data: lake.EncodeSegments(segs...)}
}
