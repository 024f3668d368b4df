package tpch

import (
	"context"
	"fmt"
	"math"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/core"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// Q5′ is the paper's workload: TPC-H Q5 with sorting and aggregation
// removed, leaving a pure select-project-join:
//
//	SELECT ... FROM customer, orders, lineitem, supplier, nation, region
//	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
//	  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
//	  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
//	  AND r_name = :region AND o_orderdate >= :lo AND o_orderdate < :hi
//
// The result cardinality is the number of qualifying (order, lineitem)
// pairs. Selectivity is varied through the o_orderdate range, as in Fig. 7.

// DateRange converts a selectivity fraction into the half-open day range
// [lo, hi) that covers that fraction of the o_orderdate domain.
func DateRange(selectivity float64) (lo, hi int) {
	if selectivity < 0 {
		selectivity = 0
	}
	if selectivity > 1 {
		selectivity = 1
	}
	return 0, int(math.Ceil(float64(DateDays) * selectivity))
}

// NationsOfRegionLake reads the region and nation files and returns the set
// of nation keys (as decimal strings, the schema-on-read field form) in the
// named region. It is the tiny "planning" read both engines perform.
func NationsOfRegionLake(ctx context.Context, catalog lake.Catalog, region string) (map[string]bool, error) {
	rf, err := catalog.File(FileRegion)
	if err != nil {
		return nil, err
	}
	regionKey := ""
	for p := 0; p < rf.NumPartitions(); p++ {
		err := rf.Scan(ctx, p, func(rec lake.Record) error {
			f, err := InterpRegion(rec)
			if err != nil {
				return err
			}
			if name, _ := f.Get("r_name"); name == region {
				regionKey, _ = f.Get("r_regionkey")
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if regionKey == "" {
		return nil, fmt.Errorf("tpch: no region named %q", region)
	}
	nf, err := catalog.File(FileNation)
	if err != nil {
		return nil, err
	}
	nations := map[string]bool{}
	for p := 0; p < nf.NumPartitions(); p++ {
		err := nf.Scan(ctx, p, func(rec lake.Record) error {
			f, err := InterpNation(rec)
			if err != nil {
				return err
			}
			if rk, _ := f.Get("n_regionkey"); rk == regionKey {
				nk, _ := f.Get("n_nationkey")
				nations[nk] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return nations, nil
}

// Q5Job composes Q5′ as a Reference-Dereference job: a range over the local
// secondary date index of orders, a fetch of each order, a carried join to
// customer (pruned to the region's nations), a prefix range over the
// order's lineitems, and a carried join to supplier with the
// c_nationkey = s_nationkey predicate evaluated on the composite record.
// The result records are composite {order ⊕ customer ⊕ lineitem ⊕ supplier}
// tuples.
func Q5Job(ctx context.Context, catalog lake.Catalog, region string, loDay, hiDay int) (*core.Job, error) {
	if hiDay <= loDay {
		return nil, fmt.Errorf("tpch: empty date range [%d, %d)", loDay, hiDay)
	}
	nations, err := NationsOfRegionLake(ctx, catalog, region)
	if err != nil {
		return nil, err
	}

	interpOC := core.Composite(InterpOrders, InterpCustomer)
	interpOCL := core.Composite(InterpOrders, InterpCustomer, InterpLineitem)
	interpOCLS := core.Composite(InterpOrders, InterpCustomer, InterpLineitem, InterpSupplier)

	customerInRegion := func(rec lake.Record) (bool, error) {
		cn, err := interpOC.Field(rec, "c_nationkey")
		return nations[cn], err
	}
	supplierMatches := func(rec lake.Record) (bool, error) {
		f, err := interpOCLS(rec)
		if err != nil {
			return false, err
		}
		sn, _ := f.Get("s_nationkey")
		cn, _ := f.Get("c_nationkey")
		return sn == cn && nations[sn], nil
	}

	seeds := []lake.Pointer{{
		File:   IdxOrdersDate,
		NoPart: true, // local index: every node searches its partitions
		Key:    keycodec.Int64(int64(loDay)),
		EndKey: keycodec.Int64(int64(hiDay - 1)),
	}}
	return core.NewJob("tpch-q5prime", seeds,
		core.RangeDeref{File: IdxOrdersDate},
		core.EntryRef{Target: FileOrders},
		core.LookupDeref{File: FileOrders},
		core.FieldRef{Target: FileCustomer, Interp: InterpOrders, Field: "o_custkey",
			Encode: EncodeInt, Carry: core.CarryRecord},
		core.LookupDeref{File: FileCustomer, Combine: true, Filter: customerInRegion},
		core.FieldRef{Target: FileLineitem, Interp: interpOC, Field: "o_orderkey",
			Encode: EncodeInt, Prefix: true, Carry: core.CarryComposite},
		core.RangeDeref{File: FileLineitem, Combine: true},
		core.FieldRef{Target: FileSupplier, Interp: interpOCL, Field: "l_suppkey",
			Encode: EncodeInt, Carry: core.CarryComposite},
		core.LookupDeref{File: FileSupplier, Combine: true, Filter: supplierMatches},
	)
}

// RunQ5Baseline executes Q5′ on the scan/hash-join engine: full scans with
// predicate pushdown on the date range, then grace hash joins
// orders⋈customer⋈lineitem⋈supplier with the region semi-join applied as
// early as possible. It returns the qualifying tuple count.
func RunQ5Baseline(ctx context.Context, eng *baseline.Engine, catalog lake.Catalog, region string, loDay, hiDay int) (int64, error) {
	nations, err := NationsOfRegionLake(ctx, catalog, region)
	if err != nil {
		return 0, err
	}
	loK, hiK := int64(loDay), int64(hiDay)
	orders, err := eng.Scan(ctx, FileOrders, func(rec lake.Record) (bool, error) {
		d, err := fieldInt(rec, 2)
		if err != nil {
			return false, err
		}
		return d >= loK && d < hiK, nil
	})
	if err != nil {
		return 0, err
	}
	customers, err := eng.Scan(ctx, FileCustomer, nil)
	if err != nil {
		return 0, err
	}
	lineitems, err := eng.Scan(ctx, FileLineitem, nil)
	if err != nil {
		return 0, err
	}
	suppliers, err := eng.Scan(ctx, FileSupplier, nil)
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

	// orders ⋈ customer on o_custkey = c_custkey.
	t := baseline.TuplesOf(orders)
	t, err = baseline.HashJoin(t, baseline.TupleKey(0, intKey(1)), customers, intKey(0))
	if err != nil {
		return 0, err
	}
	// Region semi-join on the customer's nation (pruning early, as the
	// ReDe plan does).
	nationOfCust := baseline.TupleKey(1, func(rec lake.Record) (string, error) {
		return InterpCustomer.Field(rec, "c_nationkey")
	})
	t, err = baseline.SemiJoinFilter(t, nationOfCust, nations)
	if err != nil {
		return 0, err
	}
	// ⋈ lineitem on o_orderkey = l_orderkey.
	t, err = baseline.HashJoin(t, baseline.TupleKey(0, intKey(0)), lineitems, intKey(0))
	if err != nil {
		return 0, err
	}
	// ⋈ supplier on l_suppkey = s_suppkey.
	t, err = baseline.HashJoin(t, baseline.TupleKey(2, intKey(3)), suppliers, intKey(0))
	if err != nil {
		return 0, err
	}
	// Final cross-branch predicate c_nationkey = s_nationkey.
	var count int64
	for _, tu := range t {
		cn, err := fieldInt(tu[1], 2)
		if err != nil {
			return 0, err
		}
		sn, err := fieldInt(tu[3], 2)
		if err != nil {
			return 0, err
		}
		if cn == sn {
			count++
		}
	}
	return count, nil
}

// OracleQ5 computes the exact Q5′ cardinality straight from the generated
// dataset, independent of either engine. Tests compare both engines to it.
func (ds *Dataset) OracleQ5(region string, loDay, hiDay int) int64 {
	nations := ds.NationsOfRegion(region)
	custNation := make(map[int64]int64, len(ds.Customers))
	for _, c := range ds.Customers {
		custNation[c.CustKey] = c.NationKey
	}
	suppNation := make(map[int64]int64, len(ds.Suppliers))
	for _, s := range ds.Suppliers {
		suppNation[s.SuppKey] = s.NationKey
	}
	linesOf := make(map[int64][]Lineitem, len(ds.Orders))
	for _, l := range ds.Lineitems {
		linesOf[l.OrderKey] = append(linesOf[l.OrderKey], l)
	}
	var count int64
	for _, o := range ds.Orders {
		if o.OrderDate < loDay || o.OrderDate >= hiDay {
			continue
		}
		cn := custNation[o.CustKey]
		if !nations[cn] {
			continue
		}
		for _, l := range linesOf[o.OrderKey] {
			if suppNation[l.SuppKey] == cn {
				count++
			}
		}
	}
	return count
}

// PartLineitemJoin composes the Fig. 3/4 job: parts with retail price in
// [loPrice, hiPrice] joined to their lineitems via the local price index on
// part and the global l_partkey index on lineitem (a parallel index
// nested-loop join with a global index).
func PartLineitemJoin(loPrice, hiPrice float64) (*core.Job, error) {
	seeds := []lake.Pointer{{
		File:   IdxPartPrice,
		NoPart: true,
		Key:    keycodec.Float64(loPrice),
		EndKey: keycodec.Float64(hiPrice),
	}}
	return core.NewJob("part-lineitem-join", seeds,
		core.RangeDeref{File: IdxPartPrice}, // Dereferencer-0
		core.EntryRef{Target: FilePart},     // Referencer-1
		core.LookupDeref{File: FilePart},    // Dereferencer-1
		core.FieldRef{Target: IdxLineitemPart, // Referencer-2
			Interp: InterpPart, Field: "p_partkey", Encode: EncodeInt},
		core.LookupDeref{File: IdxLineitemPart}, // Dereferencer-2
		core.EntryRef{Target: FileLineitem},     // Referencer-3
		core.LookupDeref{File: FileLineitem},    // Dereferencer-3
	)
}

// OraclePartLineitem computes the Fig. 3/4 join cardinality from the
// dataset.
func (ds *Dataset) OraclePartLineitem(loPrice, hiPrice float64) int64 {
	in := map[int64]bool{}
	for _, p := range ds.Parts {
		if p.RetailPrice >= loPrice && p.RetailPrice <= hiPrice {
			in[p.PartKey] = true
		}
	}
	var count int64
	for _, l := range ds.Lineitems {
		if in[l.PartKey] {
			count++
		}
	}
	return count
}
