package trace

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// An event is six words: a one-byte kind and three int32 attributions share
// the first two, then TS, Dur, Wait and Ptrs. A job's snapshot copies every
// retained event, so a wider field costs every traced job.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 48", got)
	}
}

// goldenEvents covers every kind, the zero event, and each field at the
// widest value it takes.
func goldenEvents() []Event {
	return append(timelineSnapshot().Events,
		Event{Kind: EvRPC, Stage: 2, Node: 3, TS: 1 << 40, Dur: 12345},
		Event{Kind: EvTask, Stage: math.MaxInt32, Node: 127, Worker: 1023, TS: -5, Dur: math.MaxInt64, Wait: 1, Ptrs: math.MaxInt32},
		Event{},
	)
}

// goldenEventsJSON is goldenEvents as encoded when EventKind was a string
// and the attributions were int: kinds by name, the same field order, names
// and omissions.
const goldenEventsJSON = `[{"kind":"task","stage":0,"node":0,"ts":0,"dur":100,"ptrs":4},{"kind":"retry","stage":0,"node":0,"ts":60},{"kind":"split","stage":0,"node":0,"ts":70,"ptrs":8},{"kind":"task","stage":1,"node":1,"worker":1,"ts":200,"dur":300,"wait":150},{"kind":"rpc","stage":2,"node":3,"ts":1099511627776,"dur":12345},{"kind":"task","stage":2147483647,"node":127,"worker":1023,"ts":-5,"dur":9223372036854775807,"wait":1,"ptrs":2147483647},{"kind":"","stage":0,"node":0,"ts":0}]`

func TestEventsJSONGolden(t *testing.T) {
	got, err := json.Marshal(goldenEvents())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenEventsJSON {
		t.Fatalf("events JSON drifted from golden.\ngot:  %s\nwant: %s", got, goldenEventsJSON)
	}
	var back []Event
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenEvents()) {
		t.Fatalf("decode round trip:\ngot:  %+v\nwant: %+v", back, goldenEvents())
	}
}

func TestEventKindText(t *testing.T) {
	for _, k := range []EventKind{EvTask, EvRetry, EvSplit, EvRPC} {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if string(text) != k.String() {
			t.Fatalf("MarshalText %q, String %q", text, k.String())
		}
		var back EventKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, k)
		}
	}
	for _, bad := range []string{"Task", "tasks", "span", "7", "enqueue"} {
		k := EvRetry
		if err := k.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted as %v", bad, k)
		}
	}
	var evs []Event
	if err := json.Unmarshal([]byte(`[{"kind":"teleport","stage":0,"node":0,"ts":0}]`), &evs); err == nil {
		t.Fatalf("an unknown kind decoded as %+v", evs)
	}
	if _, err := EventKind(200).MarshalText(); err == nil {
		t.Fatal("an out-of-range kind encoded")
	}
}

// BenchmarkSnapshot snapshots a Q5′-sized job: 386 task events, the mean a
// Q5′ job records (one per task), over 5 stages and 4 nodes. Its B/op is what
// each job's Result.Trace costs.
func BenchmarkSnapshot(b *testing.B) {
	const events = 386
	stages := make([]StageInfo, 5)
	tr := New("bench", stages, 4)
	tr.EnableEvents(0)
	for i := 0; i < events; i++ {
		tr.TaskEvent(i%5, i%4, i%32, tr.start, time.Duration(i), time.Duration(2*i), i%64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := tr.Snapshot(nil); len(s.Events) != events {
			b.Fatalf("snapshot holds %d events", len(s.Events))
		}
	}
}
