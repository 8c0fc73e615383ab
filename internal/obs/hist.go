package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumHistBuckets is the number of power-of-two histogram buckets: bucket
// i counts recorded values v with bits.Len64(v) == i, i.e. bucket 0 holds
// exactly 0 and bucket i (i >= 1) holds [2^(i-1), 2^i - 1]. The layout
// covers the full uint64 range, so Record never needs a bounds check.
const NumHistBuckets = 65

// BucketUpperBound returns the largest value bucket i can hold (the
// Prometheus "le" boundary of the bucket).
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Histogram is a named, lock-free histogram over uint64 values with
// power-of-two buckets. Like Counter, the zero value is unusable (create
// with NewHistogram), Record is gated on Enable, and the disabled path is
// a single atomic load plus a branch with no allocation. The enabled
// record path is two atomic adds — safe from any number of goroutines.
type Histogram struct {
	name    string
	sum     atomic.Uint64
	buckets [NumHistBuckets]atomic.Uint64
}

// NewHistogram returns the histogram with the given name, creating it on
// first use. Calling NewHistogram twice with one name returns the same
// histogram, so independent packages can share a series.
func NewHistogram(name string) *Histogram {
	registry.Lock()
	defer registry.Unlock()
	if registry.histograms == nil {
		registry.histograms = map[string]*Histogram{}
	}
	if h, ok := registry.histograms[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	registry.histograms[name] = h
	return h
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Record adds one observation when the layer is enabled.
func (h *Histogram) Record(v uint64) {
	if !enabled.Load() {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// reset zeroes the histogram (caller holds the registry lock via Reset).
func (h *Histogram) reset() {
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot captures the histogram's current state. Concurrent Records
// tear at most one observation between buckets and sum, which summary
// consumers tolerate.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Name: h.name, Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// LocalHist is a plain, goroutine-private histogram for hot loops: sweep
// workers observe into a LocalHist with no atomics at all and publish the
// whole thing with one FlushTo at a shard boundary — the same
// accumulate-locally idiom the counters use.
type LocalHist struct {
	sum     uint64
	buckets [NumHistBuckets]uint64
}

// Observe adds one observation. It is not gated on Enable; callers on
// disabled-path-sensitive loops should check Enabled() once outside the
// loop.
func (l *LocalHist) Observe(v uint64) {
	l.buckets[bits.Len64(v)]++
	l.sum += v
}

// ObserveN adds n observations of the same value v.
func (l *LocalHist) ObserveN(v, n uint64) {
	l.buckets[bits.Len64(v)] += n
	l.sum += v * n
}

// FlushTo merges the local histogram into h when the layer is enabled,
// then zeroes the local state either way.
func (l *LocalHist) FlushTo(h *Histogram) {
	if enabled.Load() {
		for i, n := range l.buckets {
			if n != 0 {
				h.buckets[i].Add(n)
			}
		}
		h.sum.Add(l.sum)
	}
	*l = LocalHist{}
}

// HistSnapshot is one histogram's state at snapshot time. Snapshots are
// plain values: mergeable (Merge) and reducible to quantile summaries.
type HistSnapshot struct {
	Name    string
	Count   uint64
	Sum     uint64
	Buckets [NumHistBuckets]uint64
}

// Merge adds another snapshot's observations into s (bucket-wise; the
// names need not match — merging partial snapshots of one logical series
// is the point).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the exact mean of all observations (the sum is tracked
// exactly, not reconstructed from buckets).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper bound of the bucket holding the ceil(q*Count)-th smallest
// observation. For any true quantile value v > 0 the estimate e satisfies
// v <= e < 2v (one power-of-two bucket of slack).
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) || rank == 0 {
		rank++ // ceil, and at least the first observation
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return BucketUpperBound(i)
		}
	}
	return s.MaxBound()
}

// MaxBound returns the upper bound of the highest non-empty bucket — the
// histogram's upper-bound estimate of the maximum observation.
func (s *HistSnapshot) MaxBound() uint64 {
	for i := NumHistBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketUpperBound(i)
		}
	}
	return 0
}

// Histograms captures every histogram with at least one observation,
// sorted by name.
func Histograms() []HistSnapshot {
	registry.Lock()
	out := make([]HistSnapshot, 0, len(registry.histograms))
	for _, h := range registry.histograms {
		if s := h.Snapshot(); s.Count != 0 {
			out = append(out, s)
		}
	}
	registry.Unlock()
	sortByName(out, func(s HistSnapshot) string { return s.Name })
	return out
}
