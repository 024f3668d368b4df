// Command quickstart is the smallest end-to-end LakeHarbor program: build a
// lake, ingest raw records, register an access method post hoc, let the
// engine build the structure lazily, and run a selection job with massive
// parallelism.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"

	"lakeharbor"
)

func main() {
	ctx := context.Background()

	// A 4-node simulated cluster. The zero cost model makes storage
	// instant; pass lakeharbor.HDDCostModel() to feel the I/O costs.
	engine := lakeharbor.New(lakeharbor.Config{Nodes: 4})

	// 1. Store raw data. LakeHarbor keeps data in its raw form — here,
	// CSV-ish sensor readings "sensor_id,temperature,city" — and applies
	// schemas only on read.
	if _, err := engine.CreateFile("readings", 0, nil); err != nil {
		log.Fatal(err)
	}
	cities := []string{"tokyo", "osaka", "nagoya", "sapporo"}
	for i := 0; i < 10000; i++ {
		key := lakeharbor.KeyInt64(int64(i))
		temp := 10 + (i*7919)%30 // 10..39 °C, deterministic
		raw := fmt.Sprintf("%d,%d,%s", i, temp, cities[i%len(cities)])
		rec := lakeharbor.Record{Key: key, Data: []byte(raw)}
		if err := engine.Ingest(ctx, "readings", key, rec); err != nil {
			log.Fatal(err)
		}
	}

	// A schema-on-read interpreter, declared once: the only
	// workload-specific code.
	interp := lakeharbor.Delimited("reading", ',', "sensor_id", "temp", "city")

	// 2. Make a structure a first-class citizen: register an access
	// method for a temperature index. Nothing is built yet — structures
	// are constructed lazily from the registered functions.
	err := engine.RegisterStructure(lakeharbor.StructureSpec{
		Name: "readings_by_temp",
		Base: "readings",
		Kind: lakeharbor.GlobalIndex,
		PartKey: func(rec lakeharbor.Record) (lakeharbor.Key, error) {
			return rec.Key, nil // readings are partitioned by their key
		},
		Keys: func(rec lakeharbor.Record) ([]lakeharbor.Key, error) {
			temp, err := interp.Field(rec, "temp")
			if err != nil {
				return nil, err
			}
			t, err := strconv.ParseInt(temp, 10, 64)
			if err != nil {
				return nil, err
			}
			return []lakeharbor.Key{lakeharbor.KeyInt64(t)}, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.EnsureStructure(ctx, "readings_by_temp"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("structure readings_by_temp built lazily from the registered access method")

	// 3. Query through the structure: readings hotter than 35 °C, in
	// tokyo, fetched with a Reference-Dereference job.
	onlyTokyo := func(rec lakeharbor.Record) (bool, error) {
		city, err := interp.Field(rec, "city")
		return city == "tokyo", err
	}
	seeds, err := lakeharbor.SeedRange(engine, "readings_by_temp",
		lakeharbor.KeyInt64(36), lakeharbor.KeyInt64(99))
	if err != nil {
		log.Fatal(err)
	}
	job, err := lakeharbor.NewJob("hot-tokyo-readings", seeds,
		lakeharbor.RangeDeref{File: "readings_by_temp"},
		lakeharbor.EntryRef{Target: "readings"},
		lakeharbor.LookupDeref{File: "readings", Filter: onlyTokyo},
	)
	if err != nil {
		log.Fatal(err)
	}

	before := engine.Metrics()
	res, err := engine.Execute(ctx, job, lakeharbor.Options{KeepRecords: true})
	if err != nil {
		log.Fatal(err)
	}
	used := engine.Metrics().Sub(before)

	fmt.Printf("hot tokyo readings: %d (in %v, %d record accesses)\n",
		res.Count, res.Elapsed.Round(0), used.RecordAccesses())
	for i, r := range res.Records {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(res.Records)-5)
			break
		}
		f, _ := interp(r)
		id, _ := f.Get("sensor_id")
		temp, _ := f.Get("temp")
		city, _ := f.Get("city")
		fmt.Printf("  sensor %s: %s°C in %s\n", id, temp, city)
	}
}
