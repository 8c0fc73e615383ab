package main

import (
	"math"
	"testing"
)

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{5.5, 1.25, 3.0, 8.75, 2.5}, 1.875, 3, 7.125},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{42}, 0.99, 42},
	} {
		if got := quantile(sortedCopy(c.xs), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		trim float64
		want float64
	}{
		{[]float64{5}, 0.1, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}, 0.1, 5.5}, // drops 1 and 1000
		{[]float64{1000, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.1, 5.5}, // order does not matter
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.1, 5},         // 0.9 rounds down: nothing dropped
		{[]float64{1, 2, 3, 100}, 0.25, 2.5},
		{[]float64{1, 2, 3, 4}, 0, 2.5},
	} {
		if got := trimmedMean(c.xs, c.trim); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("trimmedMean(%v, %v) = %v, want %v", c.xs, c.trim, got, c.want)
		}
	}
	if !math.IsNaN(trimmedMean(nil, 0.1)) {
		t.Error("trimmedMean(nil) is not NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50.5 || s.TailP != 90 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	if s.Q1 != 25.25 || s.Q3 != 75.75 {
		t.Errorf("summarize(1..100) quartiles %v, %v; want 25.25, 75.75", s.Q1, s.Q3)
	}
	if s := summarize(nil); s.N != 0 || s.TailP != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
	if s := summarize([]float64{1, 2, 3}); s.TailP != 0 || s.P50 != 2 {
		t.Errorf("summarize(3 samples) = %+v; want no tail percentile", s)
	}
}
