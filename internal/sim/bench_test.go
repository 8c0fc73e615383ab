package sim_test

import (
	"testing"

	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// recordPrograms are the six programs one record round simulates: the
// ones the serving benchmark queries.
var recordPrograms = []string{"minife", "matmul", "srad", "histogram", "kmeans", "dct"}

// BenchmarkRecord measures one record round: a fully instrumented
// simulation (lifetime tracking of L1, L2 and VGPR, plus the dataflow
// graph, finished and solved) of each of the six record programs. Run
// with -benchmem for the allocation count per round.
func BenchmarkRecord(b *testing.B) {
	ws := make([]sim.Workload, len(recordPrograms))
	for i, name := range recordPrograms {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ws[i] = w
	}
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := sim.Execute(w, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
