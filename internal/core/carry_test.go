package core

import (
	"context"
	"fmt"
	"testing"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// carryFixture: "users" (id → "id|group"), "groups" (gid → "gid|name"),
// "owners" (name → "name|tier") — a 3-way chain exercising CarryRecord,
// CarryComposite, Combine, and cross-branch filters.
func carryFixture(t testing.TB) (*dfs.Cluster, context.Context) {
	t.Helper()
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	users, err := c.CreateFile("users", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := c.CreateFile("groups", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	owners, err := c.CreateFile("owners", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		k := keycodec.Int64(i)
		if err := dfs.AppendRouted(ctx, users, k, lake.Record{Key: k, Data: []byte(fmt.Sprintf("%d|%d", i, i%3))}); err != nil {
			t.Fatal(err)
		}
	}
	for g := int64(0); g < 3; g++ {
		k := keycodec.Int64(g)
		if err := dfs.AppendRouted(ctx, groups, k, lake.Record{Key: k, Data: []byte(fmt.Sprintf("%d|group-%d", g, g))}); err != nil {
			t.Fatal(err)
		}
		ok := keycodec.String(fmt.Sprintf("group-%d", g))
		if err := dfs.AppendRouted(ctx, owners, ok, lake.Record{Key: ok, Data: []byte(fmt.Sprintf("group-%d|tier%d", g, g%2))}); err != nil {
			t.Fatal(err)
		}
	}
	return c, ctx
}

func interpCSV(names ...string) Interpreter { return Delimited("row", '|', names...) }

func encInt(dst []byte, v string) ([]byte, error) {
	var n int64
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		return dst, err
	}
	return keycodec.AppendInt64(dst, n), nil
}

func encStr(dst []byte, v string) ([]byte, error) { return keycodec.AppendString(dst, v), nil }

func TestThreeWayCarriedJoin(t *testing.T) {
	c, ctx := carryFixture(t)
	iUser := interpCSV("uid", "gid")
	iGroup := interpCSV("gid", "gname")
	iOwner := interpCSV("gname", "tier")
	iUG := Composite(iUser, iGroup)
	iAll := Composite(iUser, iGroup, iOwner)

	seeds := []lake.Pointer{{File: "users", NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(1 << 40)}}
	job, err := NewJob("3way", seeds,
		RangeDeref{File: "users"},
		FieldRef{Target: "groups", Interp: iUser, Field: "gid", Encode: encInt, Carry: CarryRecord},
		LookupDeref{File: "groups", Combine: true},
		FieldRef{Target: "owners", Interp: iUG, Field: "gname", Encode: encStr, Carry: CarryComposite},
		LookupDeref{File: "owners", Combine: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSMPE(ctx, job, c, c, Options{KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 30 {
		t.Fatalf("3-way join produced %d rows, want 30", res.Count)
	}
	for _, r := range res.Records {
		f, err := iAll(r)
		if err != nil {
			t.Fatal(err)
		}
		// Join keys consistent end to end.
		if get(f, "gname") != "group-"+get(f, "gid") {
			t.Fatalf("row joins wrong group: %v", f)
		}
		var uid int64
		fmt.Sscanf(get(f, "uid"), "%d", &uid)
		var gid int64
		fmt.Sscanf(get(f, "gid"), "%d", &gid)
		if uid%3 != gid {
			t.Fatalf("user %d joined to group %d", uid, gid)
		}
	}
}

func TestCrossBranchFilterOnComposite(t *testing.T) {
	c, ctx := carryFixture(t)
	iUser := interpCSV("uid", "gid")
	iGroup := interpCSV("gid", "gname")
	iUG := Composite(iUser, iGroup)

	// Keep only rows whose user id modulo 3 is 1 — a predicate needing
	// the user segment, evaluated at the group dereference.
	filter := func(rec lake.Record) (bool, error) {
		f, err := iUG(rec)
		if err != nil {
			return false, err
		}
		var uid int64
		fmt.Sscanf(get(f, "uid"), "%d", &uid)
		return uid%3 == 1, nil
	}
	seeds := []lake.Pointer{{File: "users", NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(1 << 40)}}
	job, err := NewJob("filtered", seeds,
		RangeDeref{File: "users"},
		FieldRef{Target: "groups", Interp: iUser, Field: "gid", Encode: encInt, Carry: CarryRecord},
		LookupDeref{File: "groups", Combine: true, Filter: filter},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSMPE(ctx, job, c, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 10 {
		t.Fatalf("cross-branch filter kept %d rows, want 10", res.Count)
	}
}

func TestEntryRefFromComposite(t *testing.T) {
	// Build an index file whose entries point at "groups", probe it with
	// carried context, and verify the context survives the index hop.
	c, ctx := carryFixture(t)
	idx, err := c.CreateFile("group_idx", dfs.Btree, 2, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for g := int64(0); g < 3; g++ {
		gk := keycodec.Int64(g)
		if err := dfs.AppendRouted(ctx, idx, gk, lake.Record{Key: gk, Data: lake.EncodeIndexEntry(gk, gk)}); err != nil {
			t.Fatal(err)
		}
	}
	iUser := interpCSV("uid", "gid")
	iAll := Composite(iUser, interpCSV("gid", "gname"))

	seeds := []lake.Pointer{{File: "users", NoPart: true, Key: keycodec.Int64(0), EndKey: keycodec.Int64(1 << 40)}}
	job, err := NewJob("via-index", seeds,
		RangeDeref{File: "users"},
		FieldRef{Target: "group_idx", Interp: iUser, Field: "gid", Encode: encInt, Carry: CarryRecord},
		LookupDeref{File: "group_idx", Combine: true},
		EntryRef{Target: "groups", FromComposite: true},
		LookupDeref{File: "groups", Combine: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSMPE(ctx, job, c, c, Options{KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 30 {
		t.Fatalf("index-hop join produced %d rows, want 30", res.Count)
	}
	for _, r := range res.Records {
		f, err := iAll(r)
		if err != nil {
			t.Fatalf("carried context lost across index hop: %v", err)
		}
		if get(f, "uid") == "" || get(f, "gname") == "" {
			t.Fatalf("incomplete composite: %v", f)
		}
	}
}

func TestEntryRefFromCompositeErrors(t *testing.T) {
	r := EntryRef{Target: "t", FromComposite: true}
	if _, err := r.Ref(nil, lake.Record{Data: []byte("not segments")}); err == nil {
		t.Error("non-segment input accepted")
	}
	if _, err := r.Ref(nil, lake.Record{Data: nil}); err == nil {
		t.Error("empty composite accepted")
	}
	// A valid segment list whose last segment is not an index entry.
	bad := lake.EncodeSegments([]byte("ctx"), []byte("not an entry"))
	if _, err := r.Ref(nil, lake.Record{Data: bad}); err == nil {
		t.Error("non-entry last segment accepted")
	}
}

func TestCompositeInterpreterErrors(t *testing.T) {
	i := Composite(interpCSV("a"), interpCSV("b"))
	// Wrong segment count.
	one := lake.EncodeSegments([]byte("x"))
	if _, err := i(lake.Record{Data: one}); err == nil {
		t.Error("segment-count mismatch accepted")
	}
	// Inner interpreter failure propagates.
	two := lake.EncodeSegments([]byte("x|y"), []byte("z"))
	if _, err := i(lake.Record{Data: two}); err == nil {
		t.Error("inner interpreter error not propagated")
	}
	// Not a segment list at all.
	if _, err := i(lake.Record{Data: []byte("raw")}); err == nil {
		t.Error("raw record accepted by composite interpreter")
	}
}

func TestFieldRefErrors(t *testing.T) {
	iUser := interpCSV("uid", "gid")
	r := FieldRef{Target: "t", Interp: iUser, Field: "missing", Encode: encInt}
	if _, err := r.Ref(nil, lake.Record{Data: []byte("1|2")}); err == nil {
		t.Error("missing field accepted")
	}
	r2 := FieldRef{Target: "t", Interp: iUser, Field: "gid", Encode: func(dst []byte, _ string) ([]byte, error) {
		return dst, fmt.Errorf("no encode")
	}}
	if _, err := r2.Ref(nil, lake.Record{Data: []byte("1|2")}); err == nil {
		t.Error("encode error not propagated")
	}
	r3 := FieldRef{Target: "t", Interp: iUser, Field: "gid", Encode: encInt}
	if _, err := r3.Ref(nil, lake.Record{Data: []byte("malformed")}); err == nil {
		t.Error("interpreter error not propagated")
	}
}
