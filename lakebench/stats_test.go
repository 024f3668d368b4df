package main

import (
	"math"
	"testing"
)

func TestMedianAndMAD(t *testing.T) {
	cases := []struct {
		xs       []float64
		med, mad float64
	}{
		{nil, 0, 0},
		{[]float64{7}, 7, 0},
		{[]float64{3, 1, 2}, 2, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1},
		// One repetition in five ran 30 % slow: neither figure moves much.
		{[]float64{10, 10.1, 9.9, 13, 10.2}, 10.1, 0.1},
	}
	for _, c := range cases {
		if got := median(c.xs); math.Abs(got-c.med) > 1e-9 {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.med)
		}
		if got := mad(c.xs); math.Abs(got-c.mad) > 1e-9 {
			t.Errorf("mad(%v) = %g, want %g", c.xs, got, c.mad)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median sorted its argument in place: %v", xs)
	}
}

// ramp returns 1..n ascending, so a percentile's value is its rank.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n        int
		wantRank float64
		wantUsed float64
	}{
		{1000, 900, 0.9}, // 100 beyond: p90 as asked
		{100, 90, 0.9},   // exactly 10 beyond
		{99, 89, 89.0 / 99},
		{48, 38, 38.0 / 48}, // a 3 s repetition of 62 ms jobs: p79, not p90
		{20, 10, 0.5},
		{12, 6, 0.5}, // never below the median
		{1, 1, 1},
	}
	for _, c := range cases {
		v, used := tailPercentile(ramp(c.n), 0.9)
		if v != c.wantRank || math.Abs(used-c.wantUsed) > 1e-9 {
			t.Errorf("n=%d: got value %g (quantile %g), want %g (%g)", c.n, v, used, c.wantRank, c.wantUsed)
		}
		if c.n >= 20 && float64(c.n)-v < 10 {
			t.Errorf("n=%d: only %g samples beyond the reported percentile", c.n, float64(c.n)-v)
		}
	}
	if v, used := tailPercentile(nil, 0.9); v != 0 || used != 0 {
		t.Errorf("empty input: got %g, %g", v, used)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := ramp(10)
	for q, want := range map[float64]float64{0: 1, 0.05: 1, 0.5: 5, 0.51: 6, 0.9: 9, 1: 10} {
		if got := percentile(asc, q); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", q, got, want)
		}
	}
}
