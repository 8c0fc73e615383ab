package main

import (
	"context"
	"reflect"
	"testing"
)

// TestOrderIndependence runs fig4 and cold-reload (one round each) in
// one process in both orders. Each workload resets the state it depends
// on in setup, so either order gives the same op counts, verdicts and
// problems.
func TestOrderIndependence(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		Attempted, Failed int
		Correct           bool
		Problems          []string
		Classes           []string
	}
	run := func(name string) outcome {
		w, err := newWorkload(name, 3, gold, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, err := measure(context.Background(), name, w, runConfig{seed: 3, setupRuns: 1, rounds: 1, gold: gold})
		if err != nil {
			t.Fatal(err)
		}
		var classes []string
		for _, d := range res.Details {
			classes = append(classes, d.Name)
		}
		return outcome{res.Attempted, res.Failed, res.Correct, res.Problems, classes}
	}
	figsFirst := []outcome{run("fig4"), run("cold-reload")}
	coldFirst := []outcome{run("cold-reload"), run("fig4")}
	if !reflect.DeepEqual(figsFirst[0], coldFirst[1]) {
		t.Errorf("fig4: first %+v, after cold-reload %+v", figsFirst[0], coldFirst[1])
	}
	if !reflect.DeepEqual(figsFirst[1], coldFirst[0]) {
		t.Errorf("cold-reload: after fig4 %+v, first %+v", figsFirst[1], coldFirst[0])
	}
	for _, o := range append(figsFirst, coldFirst...) {
		if !o.Correct || o.Failed != 0 {
			t.Errorf("outcome %+v: want correct with no failed ops", o)
		}
	}
	if figsFirst[1].Attempted != len(servePrograms) {
		t.Errorf("cold-reload attempted %d answers, want one per program", figsFirst[1].Attempted)
	}
}
