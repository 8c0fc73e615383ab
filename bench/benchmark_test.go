package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSON keeps ../BENCHMARK.json, where the benchmark
// declares itself, in step with the code: the same workloads, and the
// same metrics with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, code has %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, code has %+v", b.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("BENCHMARK.json command %v, paths %v", b.Command, b.Paths)
	}
}
