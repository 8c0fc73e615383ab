package experiments

import (
	"strconv"
	"testing"

	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/ecc"
	"mbavf/internal/obs"
)

// TestAVFTWindowedMeanMatchesTotal is the acceptance check behind the
// avft experiment: an 8-window AnalyzeWindowed series' cycle-weighted
// mean must reproduce the whole-run AVF to within 1e-9 for every AVF
// kind, on both instrumented structures.
func TestAVFTWindowedMeanMatchesTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation; skipped in -short")
	}
	s, err := run(Options{}, "minife")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	window := analysis.Window(s.Cycles, n)
	for _, q := range avftQuestions {
		an, err := analysis.Run{M: s}.Analyzer(q.st, q.style, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{2, 4} {
			series, err := an.AnalyzeWindowed(ecc.Parity{}, bitgeom.Mx1(m), window)
			if err != nil {
				t.Fatalf("%s %dx1: %v", q.st, m, err)
			}
			if len(series.Windows) < 2 || len(series.Windows) > n {
				t.Fatalf("%s %dx1: %d windows, want 2..%d", q.st, m, len(series.Windows), n)
			}
			if err := CheckSeriesConsistency(series); err != nil {
				t.Fatalf("%s %dx1: %v", q.st, m, err)
			}
		}
	}
}

// TestAVFTTableShape runs the registered experiment end to end and checks
// the emitted table: TOTAL rows present, per-window rows per structure
// and mode, and AVF cells at full float precision (parseable and within
// [0,1]).
func TestAVFTTableShape(t *testing.T) {
	o := quickOpts()
	o.Workloads = []string{"minife"}
	o.AVFWindows = 8
	tables := runExp(t, "avft", o)
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	tb := tables[0]
	totals := 0
	windows := 0
	for _, row := range tb.Rows {
		if row[0] != "minife" {
			t.Fatalf("unexpected workload cell %q", row[0])
		}
		for _, col := range []int{5, 6, 7} {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("AVF cell %q does not parse: %v", row[col], err)
			}
			if v < 0 || v > 1 {
				t.Fatalf("AVF cell %v outside [0,1]", v)
			}
		}
		if row[3] == "TOTAL" {
			totals++
		} else {
			windows++
		}
	}
	// 2 structures x 2 fault modes, one TOTAL each.
	if totals != 4 {
		t.Fatalf("%d TOTAL rows, want 4", totals)
	}
	if windows < 2*totals {
		t.Fatalf("%d window rows for %d series, want at least 2 per series", windows, totals)
	}
}

// TestAVFTPublishesGauges checks the avft series land on the debug
// endpoint as float gauges when the layer is enabled.
func TestAVFTPublishesGauges(t *testing.T) {
	o := quickOpts()
	o.Workloads = []string{"minife"}
	o.AVFWindows = 4
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	obs.Reset()
	runExp(t, "avft", o)
	gauges := obs.Gauges()
	found := 0
	for name := range gauges {
		switch name {
		case "avf.l1.minife.2x1.due.total", "avf.vgpr.minife.4x1.sdc.total":
			found++
		}
	}
	if found != 2 {
		t.Fatalf("avft gauges missing from registry; have %d names", len(gauges))
	}
}
