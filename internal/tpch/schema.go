// Package tpch provides the TPC-H workload of the paper's preliminary
// evaluation (§III-E): a deterministic micro-scale dataset generator, raw
// '|'-delimited record formats (schema-on-read), loaders that lay the data
// out exactly as the paper describes (base files hash-partitioned by
// primary key, local secondary indexes on date columns, global indexes on
// foreign keys), and the Q5′ query — the SPJ variant of TPC-H Q5 — as both a
// ReDe Reference-Dereference job and a baseline scan/hash-join plan.
//
// The paper ran SF=128K (128 TB); this generator is parameterized by a
// micro scale factor so the same sweep runs on one machine. Dates are
// stored as day ordinals (0 = 1992-01-01) rather than formatted dates; the
// selectivity mechanics are unchanged.
package tpch

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"lakeharbor/internal/core"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// Catalog file names.
const (
	FileRegion   = "region"
	FileNation   = "nation"
	FileSupplier = "supplier"
	FileCustomer = "customer"
	FilePart     = "part"
	FilePartSupp = "partsupp"
	FileOrders   = "orders"
	FileLineitem = "lineitem"

	// Structures (§III-E: "local secondary indexes on the date columns of
	// each file and global indexes for each foreign key of each file").
	IdxOrdersDate   = "orders_date_idx"      // local, o_orderdate
	IdxPartPrice    = "part_retailprice_idx" // local, p_retailprice
	IdxOrdersCust   = "orders_custkey_idx"   // global, o_custkey
	IdxLineitemPart = "lineitem_partkey_idx" // global, l_partkey
	IdxLineitemSupp = "lineitem_suppkey_idx" // global, l_suppkey
)

// DateDays is the size of the o_orderdate domain: 7 years starting
// 1992-01-01, as in TPC-H.
const DateDays = 2557

// Epoch is day 0 of the date domain.
var Epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// FormatDate renders a day ordinal as a calendar date for display.
func FormatDate(day int) string {
	return Epoch.AddDate(0, 0, day).Format("2006-01-02")
}

// Interpreters (schema-on-read): each table's record format, declared once.
// Every record is checked to have exactly the declared number of fields.
var (
	InterpRegion   = core.Delimited("region", '|', "r_regionkey", "r_name")
	InterpNation   = core.Delimited("nation", '|', "n_nationkey", "n_name", "n_regionkey")
	InterpSupplier = core.Delimited("supplier", '|', "s_suppkey", "s_name", "s_nationkey", "s_acctbal")
	InterpCustomer = core.Delimited("customer", '|', "c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment")
	InterpPartSupp = core.Delimited("partsupp", '|', "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost")
	InterpPart     = core.Delimited("part", '|', "p_partkey", "p_name", "p_retailprice")
	InterpOrders   = core.Delimited("orders", '|', "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice")
	InterpLineitem = core.Delimited("lineitem", '|', "l_orderkey", "l_linenumber", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice")
)

// EncodeInt appends the ordered key of a decimal integer field value to dst
// (a core.FieldRef encoder).
func EncodeInt(dst []byte, v string) ([]byte, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return dst, fmt.Errorf("tpch: bad integer field %q: %w", v, err)
	}
	return keycodec.AppendInt64(dst, n), nil
}

// EncodeFloat appends the ordered key of a decimal field value to dst.
func EncodeFloat(dst []byte, v string) ([]byte, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return dst, fmt.Errorf("tpch: bad decimal field %q: %w", v, err)
	}
	return keycodec.AppendFloat64(dst, x), nil
}

// fieldInt extracts field i of a raw record as int64 (loader/oracle
// convenience; queries use Interpreters instead).
func fieldInt(rec lake.Record, i int) (int64, error) {
	data := rec.Data
	for k := 0; k < i; k++ {
		j := bytes.IndexByte(data, '|')
		if j < 0 {
			return 0, fmt.Errorf("tpch: record has %d fields, want index %d", k+1, i)
		}
		data = data[j+1:]
	}
	if end := bytes.IndexByte(data, '|'); end >= 0 {
		data = data[:end]
	}
	return strconv.ParseInt(string(data), 10, 64)
}
