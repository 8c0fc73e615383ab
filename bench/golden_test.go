package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden.json from the code as it stands")

// TestGoldenCurrent recomputes every golden output and requires
// golden.json to hold exactly those values; with -update it rewrites the
// file instead.
func TestGoldenCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates figures and campaigns")
	}
	got, err := computeGolden(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden.json is stale (run go test -run TestGoldenCurrent -update after an intended change):\n got %+v\nwant %+v", got, want)
	}
}

// TestTamperedGoldenFails checks that the benchmark's checks compare
// against golden.json at all: a one-bit change to one golden answer
// must turn the verdict to incorrect and name the answer.
func TestTamperedGoldenFails(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *goldenData) *result {
		w := &paperFigs{job: figJobs["fig4"], gold: g}
		res, err := measure(context.Background(), "fig4", w, runConfig{seed: defaultSeed, setupRuns: 1, rounds: 1, gold: g})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(gold); !res.Correct {
		t.Fatalf("untampered golden: incorrect: %v", res.Problems)
	}
	tampered := *gold
	tampered.Figures = map[string]string{}
	for k, v := range gold.Figures {
		tampered.Figures[k] = v
	}
	d := []byte(tampered.Figures["fig4"])
	d[0] ^= 1
	tampered.Figures["fig4"] = string(d)
	res := run(&tampered)
	if res.Correct {
		t.Fatal("tampered golden: verdict still correct")
	}
	if len(res.Problems) == 0 || !strings.Contains(res.Problems[0], "fig4") {
		t.Fatalf("tampered golden: problems %v do not name fig4", res.Problems)
	}
}
