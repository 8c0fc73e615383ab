package core

// Real-workload oracle suite: the packed solver against the per-group
// oracle on recorded runs of bundled workloads, with the layouts the
// public API builds (Run.AVF). It covers the (workload, structure,
// layout, scheme, mode) points of the public suites — every point of the
// paper shapes and the policy limit equivalence, the L1 and
// register-file points of the Table III SER roll-up — plus the fault
// modes of the geometry ablation, two of which are two rows tall.

import (
	"context"
	"fmt"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// layoutQueries is one named layout of one structure and the (scheme,
// mode) queries asserted on it.
type layoutQueries struct {
	structure, style string
	factor           int
	queries          []Query
}

// queriesOver returns every scheme x mode pair.
func queriesOver(schemes []ecc.Scheme, modes []bitgeom.FaultMode) []Query {
	var qs []Query
	for _, s := range schemes {
		for _, m := range modes {
			qs = append(qs, Query{Scheme: s, Mode: m})
		}
	}
	return qs
}

// tableIIIModes are the Mx1 modes of the paper's Table III, 1x1 to 8x1.
func tableIIIModes() []bitgeom.FaultMode {
	var modes []bitgeom.FaultMode
	for m := 1; m <= 8; m++ {
		modes = append(modes, bitgeom.Mx1(m))
	}
	return modes
}

// recordWorkload simulates one bundled workload with full
// instrumentation, as the public API's RunWorkloadContext does.
func recordWorkload(t *testing.T, name string) *sim.Measurements {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.ExecuteContext(context.Background(), w, sim.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s.Measurements()
}

// workloadAnalyzer builds the analyzer Run.AVF builds for one structure
// of a recorded run under one named layout.
func workloadAnalyzer(t *testing.T, m *sim.Measurements, lq layoutQueries) *Analyzer {
	t.Helper()
	a := &Analyzer{Name: m.Workload, Graph: m.Graph, TotalCycles: m.Cycles}
	var lay *interleave.Layout
	var err error
	switch lq.structure {
	case "l1", "l2":
		sets, ways := m.L1Slots()
		a.Tracker = m.L1Tracker
		if lq.structure == "l2" {
			sets, ways = m.L2Slots()
			a.Tracker = m.L2Tracker
		}
		lineBits := m.LineBytes * 8
		switch lq.style {
		case "logical":
			lay, err = interleave.Logical(sets*ways, lineBits, lq.factor)
		case "way-physical":
			lay, err = interleave.WayPhysical(sets, ways, lineBits, lq.factor)
		case "index-physical":
			lay, err = interleave.IndexPhysical(sets, ways, lineBits, lq.factor)
		}
	case "vgpr":
		a.Tracker, a.WordVersions = m.VGPRTracker, true
		switch lq.style {
		case "intra-thread":
			lay, err = interleave.IntraThread(m.VGPRThreads, m.VGPRRegs, 32, lq.factor)
		case "inter-thread":
			lay, err = interleave.InterThread(m.VGPRThreads, m.VGPRRegs, 32, lq.factor)
			a.DetectionPreemptsSDC = true
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if lay == nil {
		t.Fatalf("no %s layout for %s", lq.style, lq.structure)
	}
	a.Layout = lay
	return a
}

// requireWorkloadOracle solves every query of lq as one batch and checks
// each against the oracle.
func requireWorkloadOracle(t *testing.T, m *sim.Measurements, lq layoutQueries) {
	t.Helper()
	a := workloadAnalyzer(t, m, lq)
	got, err := a.AnalyzeMany(0, lq.queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range lq.queries {
		want, err := a.oracleSolve(q.Scheme, q.Mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s %s %s %s %s", m.Workload, lq.structure, a.Layout.Name(), q.Scheme.Name(), q.Mode.Name())
		requireSeriesIdentical(t, label, got[i], want)
	}
}

func TestRealWorkloadOracle(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("simulates five workloads and runs the per-group oracle on them; skipped in -short and under the race detector")
	}
	runs := map[string]*sim.Measurements{}
	for _, name := range []string{"minife", "matmul", "srad", "vecadd", "kmeans"} {
		runs[name] = recordWorkload(t, name)
	}
	none, parity, secded, dected := ecc.None{}, ecc.Parity{}, ecc.SECDED{}, ecc.DECTED{}
	mx := bitgeom.Mx1

	// The L1 points of the paper-shape suite.
	t.Run("paper-shapes", func(t *testing.T) {
		for _, name := range []string{"minife", "matmul", "srad"} {
			for _, lq := range []layoutQueries{
				{"l1", "logical", 2, []Query{{parity, mx(2)}}},
				{"l1", "logical", 4, []Query{{parity, mx(4)}}},
				{"l1", "way-physical", 1, []Query{{secded, mx(2)}, {secded, mx(3)}, {parity, mx(1)}, {parity, mx(2)}}},
				{"l1", "way-physical", 2, []Query{{parity, mx(2)}, {secded, mx(6)}, {secded, mx(8)}}},
				{"l1", "way-physical", 4, []Query{{parity, mx(2)}, {parity, mx(3)}, {parity, mx(4)}}},
				{"l1", "index-physical", 2, []Query{{parity, mx(2)}}},
			} {
				requireWorkloadOracle(t, runs[name], lq)
			}
		}
	})

	// The policy limit suite: parity and SEC-DED, every Table III mode,
	// one physical layout per structure.
	t.Run("policy-limits", func(t *testing.T) {
		qs := queriesOver([]ecc.Scheme{parity, secded}, tableIIIModes())
		for _, lq := range []layoutQueries{
			{"l1", "way-physical", 2, qs},
			{"l2", "way-physical", 2, qs},
			{"vgpr", "inter-thread", 2, qs},
		} {
			requireWorkloadOracle(t, runs["vecadd"], lq)
		}
	})

	// The Table III SER roll-up of the L1 and the register file: every
	// style, scheme and factor 1, 2, 4.
	t.Run("unified-ser", func(t *testing.T) {
		qs := queriesOver([]ecc.Scheme{none, parity, secded, dected}, tableIIIModes())
		for _, factor := range []int{1, 2, 4} {
			for _, lq := range []layoutQueries{
				{"l1", "logical", factor, qs},
				{"l1", "way-physical", factor, qs},
				{"l1", "index-physical", factor, qs},
				{"vgpr", "intra-thread", factor, qs},
				{"vgpr", "inter-thread", factor, qs},
			} {
				requireWorkloadOracle(t, runs["kmeans"], lq)
			}
		}
	})

	// The geometry ablation's modes, two rows tall among them.
	t.Run("geometry", func(t *testing.T) {
		qs := queriesOver([]ecc.Scheme{ecc.CRC{Width: 8}},
			[]bitgeom.FaultMode{mx(2), mx(4), bitgeom.Rect(2, 2), bitgeom.Rect(2, 4)})
		for _, name := range []string{"minife", "matmul", "srad", "vecadd", "kmeans"} {
			requireWorkloadOracle(t, runs[name], layoutQueries{"l1", "way-physical", 2, qs})
		}
	})
}
