package tpch

import (
	"context"
	"fmt"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// Key helpers: record keys and partition keys as stored in the lake.

// OrderKey encodes an o_orderkey.
func OrderKey(ok int64) lake.Key { return keycodec.Int64(ok) }

// LineitemKey encodes the composite (l_orderkey, l_linenumber) primary key.
func LineitemKey(ok, ln int64) lake.Key {
	return keycodec.Tuple(keycodec.Int64(ok), keycodec.Int64(ln))
}

// Load creates the eight base files on the cluster and loads the dataset,
// laid out as in the paper: every file hash-partitioned by its primary key
// (lineitem by l_orderkey, partsupp by ps_partkey), dimension tables in a
// single partition. If partitions is 0, 2× the node count is used.
func Load(ctx context.Context, cluster *dfs.Cluster, ds *Dataset, partitions int) error {
	if partitions <= 0 {
		partitions = 2 * cluster.NumNodes()
	}
	type tableLoad struct {
		name  string
		parts int
		rows  func(f lake.File) error
	}
	appendRow := func(f lake.File, partKey lake.Key, key lake.Key, raw string) error {
		return dfs.AppendRouted(ctx, f, partKey, lake.Record{Key: key, Data: []byte(raw)})
	}
	tables := []tableLoad{
		{FileRegion, 1, func(f lake.File) error {
			for _, r := range ds.Regions {
				k := keycodec.Int64(r.RegionKey)
				if err := appendRow(f, k, k, r.Raw()); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileNation, 1, func(f lake.File) error {
			for _, n := range ds.Nations {
				k := keycodec.Int64(n.NationKey)
				if err := appendRow(f, k, k, n.Raw()); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileSupplier, partitions, func(f lake.File) error {
			for _, s := range ds.Suppliers {
				k := keycodec.Int64(s.SuppKey)
				if err := appendRow(f, k, k, s.Raw()); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileCustomer, partitions, func(f lake.File) error {
			for _, c := range ds.Customers {
				k := keycodec.Int64(c.CustKey)
				if err := appendRow(f, k, k, c.Raw()); err != nil {
					return err
				}
			}
			return nil
		}},
		{FilePart, partitions, func(f lake.File) error {
			for _, p := range ds.Parts {
				k := keycodec.Int64(p.PartKey)
				if err := appendRow(f, k, k, p.Raw()); err != nil {
					return err
				}
			}
			return nil
		}},
		{FilePartSupp, partitions, func(f lake.File) error {
			for _, ps := range ds.PartSupps {
				pk := keycodec.Int64(ps.PartKey) // partitioned by ps_partkey
				key := keycodec.Tuple(keycodec.Int64(ps.PartKey), keycodec.Int64(ps.SuppKey))
				if err := appendRow(f, pk, key, ps.Raw()); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileOrders, partitions, func(f lake.File) error {
			for _, o := range ds.Orders {
				k := OrderKey(o.OrderKey)
				if err := appendRow(f, k, k, o.Raw()); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileLineitem, partitions, func(f lake.File) error {
			for _, l := range ds.Lineitems {
				pk := keycodec.Int64(l.OrderKey) // partitioned by l_orderkey
				if err := appendRow(f, pk, LineitemKey(l.OrderKey, l.LineNumber), l.Raw()); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, t := range tables {
		f, err := cluster.CreateFile(t.name, dfs.Btree, t.parts, lake.HashPartitioner{})
		if err != nil {
			return fmt.Errorf("tpch: create %s: %w", t.name, err)
		}
		if err := t.rows(f); err != nil {
			return fmt.Errorf("tpch: load %s: %w", t.name, err)
		}
	}
	return nil
}

// partKeyFromField returns a Spec.PartKey extractor reading field i as an
// integer partition key.
func partKeyFromField(i int) func(lake.Record) (lake.Key, error) {
	return func(rec lake.Record) (lake.Key, error) {
		v, err := fieldInt(rec, i)
		if err != nil {
			return "", err
		}
		return keycodec.Int64(v), nil
	}
}

// intKeysFromField returns a Spec.Keys extractor reading field i as an
// integer index key.
func intKeysFromField(i int) func(lake.Record) ([]lake.Key, error) {
	return func(rec lake.Record) ([]lake.Key, error) {
		v, err := fieldInt(rec, i)
		if err != nil {
			return nil, err
		}
		return []lake.Key{keycodec.Int64(v)}, nil
	}
}

// StructureSpecs returns the access-method registrations of §III-E: local
// secondary indexes on the date (and price) columns, global indexes on the
// foreign keys. They are what a user "injects" post hoc under LakeHarbor.
func StructureSpecs() []indexer.Spec {
	priceKeys := func(rec lake.Record) ([]lake.Key, error) {
		price, err := InterpPart.Field(rec, "p_retailprice")
		if err != nil {
			return nil, err
		}
		var buf [8]byte
		k, err := EncodeFloat(buf[:0], price)
		if err != nil {
			return nil, err
		}
		return []lake.Key{string(k)}, nil
	}
	return []indexer.Spec{
		{Name: IdxOrdersDate, Base: FileOrders, Kind: indexer.Local,
			PartKey: partKeyFromField(0), Keys: intKeysFromField(2)},
		{Name: IdxPartPrice, Base: FilePart, Kind: indexer.Local,
			PartKey: partKeyFromField(0), Keys: priceKeys},
		{Name: IdxOrdersCust, Base: FileOrders, Kind: indexer.Global,
			PartKey: partKeyFromField(0), Keys: intKeysFromField(1)},
		{Name: IdxLineitemPart, Base: FileLineitem, Kind: indexer.Global,
			PartKey: partKeyFromField(0), Keys: intKeysFromField(2)},
		{Name: IdxLineitemSupp, Base: FileLineitem, Kind: indexer.Global,
			PartKey: partKeyFromField(0), Keys: intKeysFromField(3)},
	}
}

// BuildStructures registers and synchronously builds all §III-E structures.
func BuildStructures(ctx context.Context, cluster *dfs.Cluster) error {
	reg := indexer.NewRegistry(cluster)
	for _, spec := range StructureSpecs() {
		if err := reg.Register(spec); err != nil {
			return err
		}
	}
	reg.StartAll(ctx)
	return reg.WaitAll(ctx)
}

// BuildManaged registers the §III-E structures with a lifecycle manager and
// builds them through it: builds start concurrently, EnsureAll joins them,
// and opts.StructureBudget (when set) may evict cold structures as later
// builds finish. Callers Ensure a structure again before using it — the
// manager transparently rebuilds evicted ones.
func BuildManaged(ctx context.Context, cluster *dfs.Cluster, opts indexer.ManagerOptions) (*indexer.Manager, error) {
	m := indexer.NewManager(ctx, cluster, opts)
	for _, spec := range StructureSpecs() {
		if err := m.Register(spec); err != nil {
			return nil, err
		}
	}
	return m, m.EnsureAll(ctx)
}
