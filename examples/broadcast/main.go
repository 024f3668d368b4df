// Command broadcast demonstrates the expressibility claims of §III-B: the
// same join expressed three ways with Reference-Dereference —
//
//  1. routed: pointers carry a partition key and go straight to the
//     owning partition (a global-index-style probe);
//  2. broadcast: a Referencer emits pointers without partition
//     information, so the executor replicates them to every partition
//     (a broadcast join);
//  3. multi-way: the join extended by one more hop with carried context
//     (composite records).
//
// All three produce identical results; they differ in how pointers travel.
//
// Run it with:
//
//	go run ./examples/broadcast
package main

import (
	"context"
	"fmt"
	"log"

	"lakeharbor"
)

func main() {
	ctx := context.Background()
	engine := lakeharbor.New(lakeharbor.Config{Nodes: 3})

	// users(id, country_id) and countries(id, name, continent_id) and
	// continents(id, name) — raw CSV payloads.
	mustCreate(engine, "users")
	mustCreate(engine, "countries")
	mustCreate(engine, "continents")

	continents := []string{"asia", "europe", "americas"}
	for i, name := range continents {
		k := lakeharbor.KeyInt64(int64(i))
		must(engine.Ingest(ctx, "continents", k,
			lakeharbor.Record{Key: k, Data: []byte(fmt.Sprintf("%d,%s", i, name))}))
	}
	for i := 0; i < 12; i++ {
		k := lakeharbor.KeyInt64(int64(i))
		must(engine.Ingest(ctx, "countries", k,
			lakeharbor.Record{Key: k, Data: []byte(fmt.Sprintf("%d,country-%d,%d", i, i, i%3))}))
	}
	for i := 0; i < 2000; i++ {
		k := lakeharbor.KeyInt64(int64(i))
		must(engine.Ingest(ctx, "users", k,
			lakeharbor.Record{Key: k, Data: []byte(fmt.Sprintf("%d,%d", i, i%12))}))
	}

	interpUser := lakeharbor.Delimited("user", ',', "user_id", "country_id")
	interpCountry := lakeharbor.Delimited("country", ',', "country_id", "country", "continent_id")
	interpUC := lakeharbor.Composite(interpUser, interpCountry)

	// All users, seeded as a broadcast scan of the users file.
	seeds := []lakeharbor.Pointer{{File: "users", NoPart: true, Key: lakeharbor.KeyInt64(0), EndKey: lakeharbor.KeyInt64(1 << 30)}}

	// 1. Routed join: country pointers carry the partition key.
	routed, err := lakeharbor.NewJob("routed-join", seeds,
		lakeharbor.RangeDeref{File: "users"},
		lakeharbor.FieldRef{Target: "countries", Interp: interpUser, Field: "country_id", Encode: encInt},
		lakeharbor.LookupDeref{File: "countries"},
	)
	must(err)

	// 2. Broadcast join: identical, except the Referencer emits pointers
	// with no partition information — the executor replicates them.
	bcast, err := lakeharbor.NewJob("broadcast-join", seeds,
		lakeharbor.RangeDeref{File: "users"},
		lakeharbor.FieldRef{Target: "countries", Interp: interpUser, Field: "country_id", Encode: encInt, Broadcast: true},
		lakeharbor.LookupDeref{File: "countries"},
	)
	must(err)

	// 3. Multi-way join with carried context: users ⋈ countries ⋈
	// continents, the user record carried through as a composite.
	multi, err := lakeharbor.NewJob("multiway-join", seeds,
		lakeharbor.RangeDeref{File: "users"},
		lakeharbor.FieldRef{Target: "countries", Interp: interpUser, Field: "country_id",
			Encode: encInt, Carry: lakeharbor.CarryRecord},
		lakeharbor.LookupDeref{File: "countries", Combine: true},
		lakeharbor.FieldRef{Target: "continents", Interp: interpUC, Field: "continent_id",
			Encode: encInt, Carry: lakeharbor.CarryComposite},
		lakeharbor.LookupDeref{File: "continents", Combine: true},
	)
	must(err)

	r1, err := engine.Execute(ctx, routed, lakeharbor.Options{})
	must(err)
	r2, err := engine.Execute(ctx, bcast, lakeharbor.Options{})
	must(err)
	r3, err := engine.Execute(ctx, multi, lakeharbor.Options{KeepRecords: true})
	must(err)

	fmt.Printf("routed join   : %d rows in %v\n", r1.Count, r1.Elapsed.Round(0))
	fmt.Printf("broadcast join: %d rows in %v\n", r2.Count, r2.Elapsed.Round(0))
	fmt.Printf("multi-way join: %d rows in %v\n", r3.Count, r3.Elapsed.Round(0))
	if r1.Count != r2.Count || r1.Count != r3.Count {
		log.Fatal("join strategies disagree!")
	}

	// Show a composite result row interpreted with schema-on-read.
	interpAll := lakeharbor.Composite(interpUser, interpCountry,
		lakeharbor.Delimited("continent", ',', "continent_id", "continent"))
	f, err := interpAll(r3.Records[0])
	must(err)
	user, _ := f.Get("user_id")
	country, _ := f.Get("country")
	continent, _ := f.Get("continent")
	fmt.Printf("sample row: user %s lives in %s (%s)\n", user, country, continent)
}

func mustCreate(e *lakeharbor.Engine, name string) {
	if _, err := e.CreateFile(name, 0, nil); err != nil {
		log.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// encInt appends the key of a decimal field value to dst: a FieldRef encoder.
func encInt(dst []byte, v string) ([]byte, error) {
	var n int64
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		return dst, err
	}
	return append(dst, lakeharbor.KeyInt64(n)...), nil
}
