package trace

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// This file implements the lock-free latency histogram of the observability
// layer: a log-linear bucketed counter array (HdrHistogram-style) that
// thousands of concurrent workers can record into without coordination, and
// an immutable, mergeable snapshot with quantile estimation.
//
// Values are non-negative int64s in whatever unit the caller picks
// (nanoseconds for latencies, pointer counts for batch sizes). Buckets are
// exact for values < 8 and then split every power of two into 8 linear
// sub-buckets, so a quantile estimate is never more than one sub-bucket
// boundary (~12.5% relative error) above the true value.

const (
	// histSubBits is log2 of the sub-buckets per power-of-two octave.
	histSubBits = 3
	histSub     = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: histSub exact
	// small-value buckets plus histSub linear sub-buckets for each of the
	// 61 remaining octaves (top bit positions 3..63).
	histBuckets = histSub + (63-histSubBits+1)*histSub
)

// histBucketOf maps a value to its bucket index. Negative values clamp to 0.
func histBucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	msb := bits.Len64(u) - 1 // >= histSubBits here
	sub := (u >> (uint(msb) - histSubBits)) & (histSub - 1)
	return histSub + (msb-histSubBits)*histSub + int(sub)
}

// histBucketHi returns the bucket's inclusive upper bound.
func histBucketHi(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := uint((i-histSub)/histSub + histSubBits)
	sub := uint64((i - histSub) % histSub)
	hi := uint64(1)<<e + (sub+1)<<(e-histSubBits) - 1
	if hi > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(hi)
}

// Histogram is a lock-free log-bucketed value distribution. The zero value
// is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	storeMax(&h.max, v)
}

// RecordDur records a duration in nanoseconds.
func (h *Histogram) RecordDur(d time.Duration) { h.Record(int64(d)) }

// Snapshot copies the live counters into an immutable HistSnapshot. It may
// run concurrently with Record; the result is a consistent-enough view (a
// racing Record may or may not be included). The occupied buckets are
// counted first, so the bucket list is one allocation of its final size, and
// the second pass reads only the span they occupy (a racing Record that
// fills one more inside it costs another allocation; one outside it is left
// for the next snapshot).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	occupied, first, last := 0, 0, -1
	for i := range h.counts {
		if h.counts[i].Load() > 0 {
			if occupied++; occupied == 1 {
				first = i
			}
			last = i
		}
	}
	if occupied == 0 {
		return s
	}
	s.Buckets = make([]HistBucket, 0, occupied)
	for i := first; i <= last; i++ {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Hi: histBucketHi(i), N: n})
		}
	}
	return s
}

// Quantile is Snapshot().Quantile(q) read straight off the live counters,
// without copying them: a racing Record may or may not be counted.
func (h *Histogram) Quantile(q float64) int64 {
	count, top := h.count.Load(), h.max.Load()
	if count == 0 {
		return 0
	}
	rank := quantileRank(q, count)
	var cum int64
	for i := range h.counts {
		if cum += h.counts[i].Load(); cum >= rank {
			return min(histBucketHi(i), top)
		}
	}
	return top
}

// quantileRank is the rank, from 1 to count, of the q-quantile observation.
func quantileRank(q float64, count int64) int64 {
	return min(max(int64(math.Ceil(q*float64(count))), 1), count)
}

// HistBucket is one occupied bucket of a HistSnapshot.
type HistBucket struct {
	// Hi is the bucket's inclusive upper value bound.
	Hi int64 `json:"hi"`
	// N is the number of observations that fell in the bucket.
	N int64 `json:"n"`
}

// HistSnapshot is an immutable copy of a Histogram: the occupied buckets in
// ascending Hi order plus exact count, sum, and max. Snapshots from
// different histograms (or different jobs) merge losslessly because buckets
// are identified by their value bound, not their index.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Max     int64        `json:"max,omitempty"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Merge returns the distribution of both snapshots' observations combined.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Max: s.Max}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Hi < o.Buckets[j].Hi):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Hi < s.Buckets[i].Hi:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default: // same bound
			out.Buckets = append(out.Buckets, HistBucket{Hi: s.Buckets[i].Hi, N: s.Buckets[i].N + o.Buckets[j].N})
			i++
			j++
		}
	}
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) as the upper bound of the
// bucket holding the ceil(q·Count)-th smallest observation, clamped to Max
// so Quantile(1) is exact. An empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := quantileRank(q, s.Count)
	var cum int64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= rank {
			if b.Hi > s.Max {
				return s.Max
			}
			return b.Hi
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the observations, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// HistSummary is a compact JSON-friendly digest of a distribution, used by
// the bench commands' machine-readable output.
type HistSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Summary digests the snapshot into count, mean, p50/p90/p99, and max.
func (s HistSnapshot) Summary() HistSummary {
	return HistSummary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.5),
		P90:   s.Quantile(0.9),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}
