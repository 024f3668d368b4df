package trace

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistBucketBounds(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value
	// and whose predecessor's bound is < the value.
	vals := []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1025,
		1e6, 1e9, 1e12, math.MaxInt64 - 1, math.MaxInt64}
	for _, v := range vals {
		i := histBucketOf(v)
		if hi := histBucketHi(i); hi < v {
			t.Errorf("value %d landed in bucket %d with hi %d < value", v, i, hi)
		}
		if i > 0 {
			if lo := histBucketHi(i - 1); lo >= v {
				t.Errorf("value %d landed in bucket %d but bucket %d already covers it (hi %d)", v, i, i-1, lo)
			}
		}
	}
	if histBucketOf(-5) != 0 {
		t.Errorf("negative values must clamp to bucket 0, got %d", histBucketOf(-5))
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	// Hammer one histogram from many goroutines; run under -race this
	// checks the lock-free recording path, and the totals must be exact.
	var h Histogram
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Record(rng.Int63n(1_000_000))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(goroutines * perG); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var inBuckets int64
	for _, b := range s.Buckets {
		inBuckets += b.N
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, s.Count)
	}
}

// TestQuantileWithinOneBucket is the accuracy property the bucketing is
// designed for: for any recorded distribution, Quantile(q) is bounded below
// by the exact q-quantile and above by the upper bound of the exact
// quantile's bucket.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		n := 1 + rng.Intn(500)
		vals := make([]int64, n)
		for i := range vals {
			// Mix of magnitudes so both exact and log buckets are hit.
			vals[i] = rng.Int63n(int64(1) << uint(1+rng.Intn(40)))
			h.Record(vals[i])
		}
		sorted := append([]int64(nil), vals...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		s := h.Snapshot()
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			got := s.Quantile(q)
			if live := h.Quantile(q); live != got {
				t.Fatalf("trial %d: live Quantile(%g) = %d, the snapshot's %d", trial, q, live, got)
			}
			if got < exact {
				t.Fatalf("trial %d: Quantile(%g) = %d below exact %d", trial, q, got, exact)
			}
			if hi := histBucketHi(histBucketOf(exact)); got > hi {
				t.Fatalf("trial %d: Quantile(%g) = %d above bucket bound %d of exact %d",
					trial, q, got, hi, exact)
			}
		}
		if s.Quantile(1) != sorted[n-1] {
			t.Fatalf("trial %d: Quantile(1) = %d, want exact max %d", trial, s.Quantile(1), sorted[n-1])
		}
	}
}

// TestMergeMatchesCombinedRecording: merging two snapshots must be
// indistinguishable from recording both value streams into one histogram.
func TestMergeMatchesCombinedRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		var a, b, both Histogram
		for i := 0; i < 300; i++ {
			v := rng.Int63n(int64(1) << uint(1+rng.Intn(30)))
			if i%2 == 0 {
				a.Record(v)
			} else {
				b.Record(v)
			}
			both.Record(v)
		}
		merged := a.Snapshot().Merge(b.Snapshot())
		want := both.Snapshot()
		if merged.Count != want.Count || merged.Sum != want.Sum || merged.Max != want.Max {
			t.Fatalf("trial %d: merged (%d,%d,%d) != combined (%d,%d,%d)",
				trial, merged.Count, merged.Sum, merged.Max, want.Count, want.Sum, want.Max)
		}
		if len(merged.Buckets) != len(want.Buckets) {
			t.Fatalf("trial %d: merged has %d buckets, combined %d", trial, len(merged.Buckets), len(want.Buckets))
		}
		for i := range merged.Buckets {
			if merged.Buckets[i] != want.Buckets[i] {
				t.Fatalf("trial %d: bucket %d: merged %+v != combined %+v",
					trial, i, merged.Buckets[i], want.Buckets[i])
			}
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if merged.Quantile(q) != want.Quantile(q) {
				t.Fatalf("trial %d: Quantile(%g) merged %d != combined %d",
					trial, q, merged.Quantile(q), want.Quantile(q))
			}
		}
	}
}

func TestEmptySnapshot(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Count != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	merged := s.Merge(s)
	if merged.Count != 0 || len(merged.Buckets) != 0 {
		t.Fatalf("empty merge not empty: %+v", merged)
	}
}

func TestRecordDurAndSummary(t *testing.T) {
	var h Histogram
	h.RecordDur(time.Millisecond)
	h.RecordDur(2 * time.Millisecond)
	s := h.Snapshot()
	sum := s.Summary()
	if sum.Count != 2 || sum.Max != int64(2*time.Millisecond) {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestSnapshotAllocatesOnce: however many buckets are occupied, a snapshot's
// bucket list is one allocation, and an empty histogram's is none.
func TestSnapshotAllocatesOnce(t *testing.T) {
	var empty, h Histogram
	for v := int64(0); v < 1<<20; v = v*3 + 1 {
		h.Record(v)
	}
	if n := len(h.Snapshot().Buckets); n < 10 {
		t.Fatalf("only %d buckets occupied", n)
	}
	for _, c := range []struct {
		h    *Histogram
		want float64
	}{{&empty, 0}, {&h, 1}} {
		if got := testing.AllocsPerRun(50, func() { _ = c.h.Snapshot() }); got != c.want {
			t.Errorf("Snapshot of %d buckets allocates %.0f times, want %.0f", len(c.h.Snapshot().Buckets), got, c.want)
		}
	}
}
