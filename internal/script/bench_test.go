package script

// Allocation and speed budgets for the lowered code, on the Q5′ functions
// lakebench's q5_script workload registers: what a scripted access method
// costs per record next to its compiled twin.

import (
	"fmt"
	"sync"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/tpch"
)

// q5Source is lakebench's q5ScriptSource, copied: the EntryRef over the
// orders-date index, the o_custkey FieldRef with its carried record, and the
// date index's partition-key and key extractors.
const q5Source = `fn ref_entry(key, data) {
	emit("orders", indexpart(data), indexkey(data))
}
fn ref_cust(key, data) {
	let rest = substr(data, find(data, "|") + 1, len(data))
	let k = keyint(int(substr(rest, 0, find(rest, "|"))))
	carry()
	emit("customer", k, k)
}
fn partkey(key, data) {
	return keyint(int(substr(data, 0, find(data, "|"))))
}
fn keys(key, data) {
	let rest = substr(data, find(data, "|") + 1, len(data))
	rest = substr(rest, find(rest, "|") + 1, len(rest))
	emit(keyint(int(substr(rest, 0, find(rest, "|")))))
}
`

// recentSource is a filter over the same rows: o_orderdate >= 1200.
const recentSource = `fn recent(key, data) {
	let rest = substr(data, find(data, "|") + 1, len(data))
	rest = substr(rest, find(rest, "|") + 1, len(rest))
	return 1200 <= int(substr(rest, 0, find(rest, "|")))
}
`

// orderRec is one orders row in tpch's "orderkey|custkey|orderdate|total"
// layout.
func orderRec(i int64) lake.Record {
	o := tpch.Order{OrderKey: i, CustKey: 7*i + 3, OrderDate: int(1000 + i%900), TotalPrice: 172799.49}
	return lake.Record{Key: tpch.OrderKey(i), Data: []byte(o.Raw())}
}

// compiledRefCust is the compiled function ref_cust mirrors (tpch.Q5Job's
// fourth stage).
var compiledRefCust = core.FieldRef{Target: tpch.FileCustomer, Interp: tpch.InterpOrders,
	Field: "o_custkey", Encode: tpch.EncodeInt, Carry: core.CarryRecord}

func TestScriptedRefMatchesCompiledTwin(t *testing.T) {
	ref, err := MustCompile(q5Source).NewReferencer("cust", "ref_cust", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &core.TaskCtx{}
	for i := int64(1); i <= 50; i++ {
		rec := orderRec(i)
		got, err := ref.Ref(tc, rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := compiledRefCust.Ref(tc, rec)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("order %d: scripted %v, compiled %v", i, got, want)
		}
	}
}

// TestAdapterAllocationBudgets pins what a scripted call may allocate. The
// frame is pooled and the contract builtins are static, so what is left is
// the work itself: the payload's string form, the encoded key, the carried
// segment list and the one-pointer result.
func TestAdapterAllocationBudgets(t *testing.T) {
	p := MustCompile(q5Source)
	rec := orderRec(42)
	ref, err := p.NewReferencer("cust", "ref_cust", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	filter, err := MustCompile(recentSource).NewFilter("recent", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	partKey, err := p.PartKeyFunc("partkey", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tc := &core.TaskCtx{}
	for _, budget := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"Referencer.Ref", 5, func() error { _, err := ref.Ref(tc, rec); return err }},
		{"Filter", 1, func() error { _, err := filter(rec); return err }},
		{"PartKeyFunc", 2, func() error { _, err := partKey(rec); return err }},
	} {
		if err := budget.call(); err != nil {
			t.Fatalf("%s: %v", budget.name, err)
		}
		if got := testing.AllocsPerRun(200, func() { _ = budget.call() }); got > budget.max {
			t.Errorf("%s allocates %.0f times per call, budget %.0f", budget.name, got, budget.max)
		}
	}
}

// TestConcurrentCallsShareOneProgram drives one Program from 8 goroutines
// and checks every result: frames are per invocation and nothing lowered is
// mutable, so `go test -race` must stay silent and no call may see
// another's locals, arguments or emitted pointers.
func TestConcurrentCallsShareOneProgram(t *testing.T) {
	const goroutines, calls = 8, 10_000
	p := MustCompile(q5Source)
	ref, err := p.NewReferencer("cust", "ref_cust", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			tc := &core.TaskCtx{}
			for i := int64(0); i < calls; i++ {
				id := g*calls + i
				rec := orderRec(id)
				want := keycodec.Int64(7*id + 3)
				ptrs, err := ref.Ref(tc, rec)
				if err != nil || len(ptrs) != 1 || ptrs[0].Key != want || ptrs[0].PartKey != want ||
					string(ptrs[0].Carry) != string(lake.EncodeSegments(rec.Data)) {
					t.Errorf("goroutine %d call %d: Ref = %v, %v", g, i, ptrs, err)
					return
				}
				v, err := p.Call("partkey", Limits{}, nil, Str(rec.Key), Str(string(rec.Data)))
				if s, _ := v.IsStr(); err != nil || s != keycodec.Int64(id) {
					t.Errorf("goroutine %d call %d: partkey = %q, %v", g, i, s, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

var benchSink int

func BenchmarkScriptRef(b *testing.B) {
	scripted, err := MustCompile(q5Source).NewReferencer("cust", "ref_cust", Limits{})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]lake.Record, 1024)
	for i := range recs {
		recs[i] = orderRec(int64(i))
	}
	tc := &core.TaskCtx{}
	for _, arm := range []struct {
		name string
		ref  core.Referencer
	}{{"scripted", scripted}, {"compiled", compiledRefCust}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ptrs, err := arm.ref.Ref(tc, recs[i%len(recs)])
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(ptrs)
			}
		})
	}
}

// BenchmarkScriptCompile prices lex + parse + lowering of the Q5′ source:
// what a POST /v1/scripts or a recovery pays per script.
func BenchmarkScriptCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Compile(q5Source)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(p.order)
	}
}
