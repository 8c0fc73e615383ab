package store

import (
	"testing"

	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// BenchmarkEncode measures encoding the artifacts of one record round
// (the six programs the serving benchmark queries), simulated once
// outside the timer. Run with -benchmem for the allocations per round.
func BenchmarkEncode(b *testing.B) {
	var ms []*sim.Measurements
	for _, name := range []string{"minife", "matmul", "srad", "histogram", "kmeans", "dct"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.Execute(w, sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ms = append(ms, s.Measurements())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, m := range ms {
			data, err := EncodedBytes(m)
			if err != nil {
				b.Fatal(err)
			}
			n += len(data)
		}
		b.SetBytes(int64(n))
	}
}
