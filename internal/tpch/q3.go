package tpch

import (
	"context"
	"fmt"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/core"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// Q3′ is the SPJ reduction of TPC-H Q3 (the "shipping priority" query),
// following the same simplification the paper applies to Q5:
//
//	SELECT ... FROM customer, orders, lineitem
//	WHERE c_mktsegment = :segment AND c_custkey = o_custkey
//	  AND l_orderkey = o_orderkey AND o_orderdate < :d
//
// It exercises a different shape from Q5′ — a categorical predicate on the
// customer dimension combined with a date range on orders — over the same
// structures. The result cardinality is the number of qualifying
// (order, lineitem) pairs.

// Q3Job composes Q3′ as a Reference-Dereference job: the date range drives
// through the local secondary index on o_orderdate, each order carries to
// its customer (filtered by market segment), and each surviving composite
// fans out to the order's lineitems by prefix range.
func Q3Job(segment string, hiDay int) (*core.Job, error) {
	if hiDay <= 0 {
		return nil, fmt.Errorf("tpch: empty date range [0, %d)", hiDay)
	}
	interpOC := core.Composite(InterpOrders, InterpCustomer)
	segmentFilter := func(rec lake.Record) (bool, error) {
		seg, err := interpOC.Field(rec, "c_mktsegment")
		return seg == segment, err
	}
	seeds := []lake.Pointer{{
		File:   IdxOrdersDate,
		NoPart: true,
		Key:    keycodec.Int64(0),
		EndKey: keycodec.Int64(int64(hiDay - 1)),
	}}
	return core.NewJob("tpch-q3prime", seeds,
		core.RangeDeref{File: IdxOrdersDate},
		core.EntryRef{Target: FileOrders},
		core.LookupDeref{File: FileOrders},
		core.FieldRef{Target: FileCustomer, Interp: InterpOrders, Field: "o_custkey",
			Encode: EncodeInt, Carry: core.CarryRecord},
		core.LookupDeref{File: FileCustomer, Combine: true, Filter: segmentFilter},
		core.FieldRef{Target: FileLineitem, Interp: interpOC, Field: "o_orderkey",
			Encode: EncodeInt, Prefix: true, Carry: core.CarryComposite},
		core.RangeDeref{File: FileLineitem, Combine: true},
	)
}

// RunQ3Baseline executes Q3′ on the scan/hash-join engine.
func RunQ3Baseline(ctx context.Context, eng *baseline.Engine, segment string, hiDay int) (int64, error) {
	hiK := int64(hiDay)
	orders, err := eng.Scan(ctx, FileOrders, func(rec lake.Record) (bool, error) {
		d, err := fieldInt(rec, 2)
		if err != nil {
			return false, err
		}
		return d < hiK, nil
	})
	if err != nil {
		return 0, err
	}
	customers, err := eng.Scan(ctx, FileCustomer, func(rec lake.Record) (bool, error) {
		seg, err := InterpCustomer.Field(rec, "c_mktsegment")
		return seg == segment, err
	})
	if err != nil {
		return 0, err
	}
	lineitems, err := eng.Scan(ctx, FileLineitem, nil)
	if err != nil {
		return 0, err
	}
	intKey := func(pos int) baseline.KeyFn {
		return func(rec lake.Record) (string, error) {
			v, err := fieldInt(rec, pos)
			if err != nil {
				return "", err
			}
			return keycodec.Int64(v), nil
		}
	}
	t := baseline.TuplesOf(orders)
	t, err = baseline.HashJoin(t, baseline.TupleKey(0, intKey(1)), customers, intKey(0))
	if err != nil {
		return 0, err
	}
	t, err = baseline.HashJoin(t, baseline.TupleKey(0, intKey(0)), lineitems, intKey(0))
	if err != nil {
		return 0, err
	}
	return int64(len(t)), nil
}

// OracleQ3 computes Q3′'s exact cardinality from the dataset.
func (ds *Dataset) OracleQ3(segment string, hiDay int) int64 {
	inSegment := make(map[int64]bool, len(ds.Customers))
	for _, c := range ds.Customers {
		if c.MktSegment == segment {
			inSegment[c.CustKey] = true
		}
	}
	linesOf := make(map[int64]int64, len(ds.Orders))
	for _, l := range ds.Lineitems {
		linesOf[l.OrderKey]++
	}
	var count int64
	for _, o := range ds.Orders {
		if o.OrderDate < hiDay && inSegment[o.CustKey] {
			count += linesOf[o.OrderKey]
		}
	}
	return count
}
