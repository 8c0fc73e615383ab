package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over 200 samples is two observations, not
// a percentile.
const tailMin = 10

// summary describes one sample set: its size, median and quartiles, and
// the highest percentile of the ladder p50, p90, p99, p99.9, p99.99 that
// still has at least tailMin samples beyond it (TailP is 0 when even the
// median has fewer).
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of sorted samples by linear
// interpolation between the closest ranks; NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// trimmedMean is the mean of xs without its lowest and highest
// floor(trim*n) samples; NaN for no samples.
func trimmedMean(xs []float64, trim float64) float64 {
	s := sortedCopy(xs)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match a Python check of the same
// values. One sample yields that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentile returns the highest ladder percentile with at least
// tailMin of n samples beyond it.
func tailPercentile(n int) (float64, bool) {
	// Percentiles in parts per 10^4, compared in integers so p99 over
	// exactly 1000 samples counts its 10 samples beyond.
	best, ok := 0, false
	for _, p := range []int{5000, 9000, 9900, 9990, 9999} {
		if n*(10000-p) >= tailMin*10000 {
			best, ok = p, true
		}
	}
	return float64(best) / 100, ok
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Q1, out.P50, out.Q3 = quartiles(s)
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP = p
		out.Tail = quantile(s, p/100)
	}
	return out
}
