package baseline

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

func load(t testing.TB, c *dfs.Cluster, name string, rows int, payload func(i int) string) {
	t.Helper()
	ctx := context.Background()
	f, err := c.CreateFile(name, dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		k := keycodec.Int64(int64(i))
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte(payload(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

func fieldInt(rec lake.Record, i int) (int64, error) {
	return strconv.ParseInt(strings.Split(string(rec.Data), "|")[i], 10, 64)
}

func TestScanAll(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	load(t, c, "t", 100, func(i int) string { return fmt.Sprintf("%d|v%d", i, i) })
	e := New(c, 4)
	recs, err := e.Scan(context.Background(), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("scan returned %d records, want 100", len(recs))
	}
}

func TestScanPushdown(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	load(t, c, "t", 100, func(i int) string { return fmt.Sprintf("%d|x", i) })
	e := New(c, 0)
	if e.Cores() != DefaultCores {
		t.Errorf("Cores = %d, want %d", e.Cores(), DefaultCores)
	}
	recs, err := e.Scan(context.Background(), "t", func(r lake.Record) (bool, error) {
		v, err := fieldInt(r, 0)
		return v < 10, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("pushdown returned %d records, want 10", len(recs))
	}
}

func TestScanMissingFile(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	e := New(c, 2)
	if _, err := e.Scan(context.Background(), "ghost", nil); !errors.Is(err, lake.ErrNoSuchFile) {
		t.Fatalf("missing file error = %v", err)
	}
}

func TestScanPredicateError(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	load(t, c, "t", 10, func(i int) string { return "x" })
	e := New(c, 2)
	boom := errors.New("bad pred")
	if _, err := e.Scan(context.Background(), "t", func(lake.Record) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Fatalf("predicate error = %v", err)
	}
}

func TestScanFaultPropagates(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{Nodes: 1})
	load(t, c, "t", 10, func(i int) string { return "x" })
	boom := errors.New("disk gone")
	c.InjectFaults(func(a dfs.Access) (time.Duration, error) {
		if a.File == "t" && a.Partition == 1 {
			return 0, boom
		}
		return 0, nil
	})
	e := New(c, 2)
	if _, err := e.Scan(context.Background(), "t", nil); !errors.Is(err, boom) {
		t.Fatalf("fault = %v", err)
	}
}

func TestScanRespectsStaticParallelism(t *testing.T) {
	// 1 node, 4 partitions, 1 core: the four partition scans serialize.
	// Each partition has 25 records at 1ms each → >= 100ms total.
	c := dfs.NewCluster(dfs.Config{
		Nodes: 1,
		Cost:  sim.CostModel{ScanPerRecord: time.Millisecond, QueueDepth: 1008},
	})
	load(t, c, "t", 100, func(i int) string { return "x" })
	e := New(c, 1)
	start := time.Now()
	if _, err := e.Scan(context.Background(), "t", nil); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)
	if serial < 90*time.Millisecond {
		t.Errorf("1-core scan took %v, want >= ~100ms", serial)
	}

	// Same data, 4 cores: scans overlap and finish in roughly max, not sum.
	c2 := dfs.NewCluster(dfs.Config{
		Nodes: 1,
		Cost:  sim.CostModel{ScanPerRecord: time.Millisecond, QueueDepth: 1008},
	})
	load(t, c2, "t", 100, func(i int) string { return "x" })
	e2 := New(c2, 4)
	start = time.Now()
	if _, err := e2.Scan(context.Background(), "t", nil); err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(start)
	if parallel > serial*3/4 {
		t.Errorf("4-core scan (%v) not meaningfully faster than 1-core (%v)", parallel, serial)
	}
}

func TestHashJoin(t *testing.T) {
	// left: (id, fk), right: (id, val); join left.fk = right.id.
	var left []Tuple
	for i := 0; i < 10; i++ {
		left = append(left, Tuple{{Key: keycodec.Int64(int64(i)), Data: []byte(fmt.Sprintf("%d|%d", i, i%3))}})
	}
	var right []lake.Record
	for i := 0; i < 3; i++ {
		right = append(right, lake.Record{Key: keycodec.Int64(int64(i)), Data: []byte(fmt.Sprintf("%d|val%d", i, i))})
	}
	keyOf := func(pos int) KeyFn {
		return func(r lake.Record) (string, error) {
			v, err := fieldInt(r, pos)
			return keycodec.Int64(v), err
		}
	}
	out, err := HashJoin(left, TupleKey(0, keyOf(1)), right, keyOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("join produced %d tuples, want 10", len(out))
	}
	for _, tu := range out {
		if len(tu) != 2 {
			t.Fatalf("tuple width %d, want 2", len(tu))
		}
		fk, _ := fieldInt(tu[0], 1)
		id, _ := fieldInt(tu[1], 0)
		if fk != id {
			t.Fatalf("join key mismatch: %d vs %d", fk, id)
		}
	}
}

func TestHashJoinDuplicatesFanOut(t *testing.T) {
	left := []Tuple{{{Data: []byte("0|7")}}}
	right := []lake.Record{{Data: []byte("7|a")}, {Data: []byte("7|b")}}
	key0 := func(r lake.Record) (string, error) { v, err := fieldInt(r, 0); return keycodec.Int64(v), err }
	key1 := func(r lake.Record) (string, error) { v, err := fieldInt(r, 1); return keycodec.Int64(v), err }
	out, err := HashJoin(left, TupleKey(0, key1), right, key0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("duplicate join produced %d tuples, want 2", len(out))
	}
}

func TestHashJoinNoMatch(t *testing.T) {
	left := []Tuple{{{Data: []byte("0|9")}}}
	right := []lake.Record{{Data: []byte("7|a")}}
	key0 := func(r lake.Record) (string, error) { v, err := fieldInt(r, 0); return keycodec.Int64(v), err }
	key1 := func(r lake.Record) (string, error) { v, err := fieldInt(r, 1); return keycodec.Int64(v), err }
	out, err := HashJoin(left, TupleKey(0, key1), right, key0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("no-match join produced %d tuples", len(out))
	}
}

func TestHashJoinKeyErrors(t *testing.T) {
	boom := errors.New("no key")
	bad := func(lake.Record) (string, error) { return "", boom }
	good := func(lake.Record) (string, error) { return "k", nil }
	if _, err := HashJoin([]Tuple{{{}}}, TupleKey(0, good), []lake.Record{{}}, bad); !errors.Is(err, boom) {
		t.Error("build key error not propagated")
	}
	if _, err := HashJoin([]Tuple{{{}}}, TupleKey(0, bad), []lake.Record{{}}, good); !errors.Is(err, boom) {
		t.Error("probe key error not propagated")
	}
	if _, err := HashJoin([]Tuple{{}}, TupleKey(3, good), []lake.Record{{}}, good); err == nil {
		t.Error("out-of-range tuple position not caught")
	}
}

func TestTuplesOf(t *testing.T) {
	recs := []lake.Record{{Key: "a"}, {Key: "b"}}
	ts := TuplesOf(recs)
	if len(ts) != 2 || len(ts[0]) != 1 || ts[1][0].Key != "b" {
		t.Fatalf("TuplesOf = %v", ts)
	}
}

func TestSemiJoinFilter(t *testing.T) {
	tuples := []Tuple{
		{{Data: []byte("1|a")}},
		{{Data: []byte("2|b")}},
		{{Data: []byte("3|a")}},
	}
	key := TupleKey(0, func(r lake.Record) (string, error) {
		return strings.Split(string(r.Data), "|")[1], nil
	})
	out, err := SemiJoinFilter(tuples, key, map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("semi join kept %d tuples, want 2", len(out))
	}
	boom := errors.New("x")
	if _, err := SemiJoinFilter(tuples, func(Tuple) (string, error) { return "", boom }, nil); !errors.Is(err, boom) {
		t.Error("semi join key error not propagated")
	}
}
