package trace

import (
	"fmt"
	"testing"
)

// TestRegistryWraparound is the regression test for the circular-index
// eviction: once the ring wraps, Recent() must still return the newest
// snapshots newest-first and Get must resolve exactly the retained ids.
func TestRegistryWraparound(t *testing.T) {
	const capacity, added = 4, 11
	r := NewRegistry(capacity)
	for i := 0; i < added; i++ {
		r.Add(&Snapshot{Job: fmt.Sprintf("job-%d", i)})
	}
	recent := r.Recent()
	if len(recent) != capacity {
		t.Fatalf("retained %d snapshots, want %d", len(recent), capacity)
	}
	for i, s := range recent {
		// Newest first: ids added..added-capacity+1.
		if want := int64(added - i); s.ID != want {
			t.Fatalf("Recent()[%d].ID = %d, want %d", i, s.ID, want)
		}
		if want := fmt.Sprintf("job-%d", added-1-i); s.Job != want {
			t.Fatalf("Recent()[%d].Job = %q, want %q", i, s.Job, want)
		}
	}
	// Evicted ids are gone, retained ids resolve.
	for id := int64(1); id <= added; id++ {
		got := r.Get(id)
		if id <= added-capacity {
			if got != nil {
				t.Fatalf("Get(%d) = %v, want nil (evicted)", id, got)
			}
		} else if got == nil || got.ID != id {
			t.Fatalf("Get(%d) = %v, want retained snapshot", id, got)
		}
	}
	// Totals must cover every job ever added, eviction notwithstanding.
	if tot := r.Totals(); tot.Jobs != added {
		t.Fatalf("Totals().Jobs = %d, want %d", tot.Jobs, added)
	}
}

func TestRegistryMergesLatencies(t *testing.T) {
	r := NewRegistry(2)
	for i := 0; i < 3; i++ {
		var h Histogram
		h.Record(int64(100 * (i + 1)))
		r.Add(&Snapshot{Job: "j", Lat: Latencies{Task: h.Snapshot()}})
	}
	lat := r.Latencies()
	if lat.Task.Count != 3 {
		t.Fatalf("merged task count = %d, want 3 (must survive ring eviction)", lat.Task.Count)
	}
	if lat.Task.Max != 300 {
		t.Fatalf("merged task max = %d, want 300", lat.Task.Max)
	}
}
