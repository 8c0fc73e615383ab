package core

// Scalar-vs-packed solver equivalence harness. The word-packed solver
// (packed.go) must produce results bit-identical (==, not approximately)
// to the scalar per-bit sweep for every scheme x fault-mode combination,
// including geometries whose row widths straddle 64-bit word boundaries.
// These tests are the proof the packed fast path leans on.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/dataflow"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/lifetime"
	"mbavf/internal/obs"
)

// boundaryLayout builds a logical-style layout whose rows are exactly
// cols bits wide — including widths that are not multiples of 64 (or
// even 8: the backing word is padded to the next byte, leaving the top
// bits unmapped, which is precisely the word-boundary shape the packed
// extraction has to get right).
func boundaryLayout(t testing.TB, rows, cols, factor int) *interleave.Layout {
	t.Helper()
	wordBits := (cols + 7) / 8 * 8
	lay, err := interleave.NewCustom(
		fmt.Sprintf("equiv-%dc-x%d", cols, factor),
		bitgeom.Geometry{Rows: rows, Cols: cols},
		rows, wordBits, rows*factor, factor,
		func(p bitgeom.BitPos) (interleave.WordBit, int) {
			return interleave.WordBit{Word: p.Row, Bit: p.Col}, p.Row*factor + p.Col%factor
		})
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// randomTimelineAnalyzer fills the layout's backing tracker with a
// seeded random lifetime history and random liveness.
func randomTimelineAnalyzer(r *rand.Rand, lay *interleave.Layout, wordVersions bool, horizon uint64, preempt bool) *Analyzer {
	words := lay.Words
	bpw := lay.WordBits / 8
	tr := lifetime.NewTracker(words, bpw)
	g := dataflow.NewGraph()
	for w := 0; w < words; w++ {
		for b := 0; b < bpw; b++ {
			t := uint64(r.Intn(8))
			held := false
			for e, n := 0, r.Intn(7); e < n && t < horizon; e++ {
				switch r.Intn(4) {
				case 0:
					v := g.New(dataflow.TransferNone, 0)
					g.MarkRootLive(v, r.Uint32())
					if r.Intn(2) == 0 {
						g.NoteRead(v, t+uint64(r.Intn(int(horizon))))
					}
					tr.Open(w, b, t, v)
					held = true
				case 1:
					if held {
						tr.Read(w, b, t)
					}
				case 2:
					if held {
						tr.CloseClean(w, b, t)
						held = false
					}
				default:
					if held {
						tr.CloseDirty(w, b, t)
						held = false
					}
				}
				t += 1 + uint64(r.Intn(9))
			}
		}
	}
	tr.Finish(horizon)
	g.Solve()
	return &Analyzer{
		Layout:               lay,
		Tracker:              tr,
		Graph:                g,
		WordVersions:         wordVersions,
		TotalCycles:          horizon,
		DetectionPreemptsSDC: preempt,
	}
}

// solveBoth runs the same windowed analysis through the packed and the
// scalar solver. Error outcomes must agree; on success both series are
// returned.
func solveBoth(t *testing.T, a *Analyzer, scheme ecc.Scheme, mode bitgeom.FaultMode, window uint64) (packed, scalar *Series, ok bool) {
	t.Helper()
	a.ScalarSolve = false
	packed, errP := a.AnalyzeWindowed(scheme, mode, window)
	a.ScalarSolve = true
	scalar, errS := a.AnalyzeWindowed(scheme, mode, window)
	a.ScalarSolve = false
	if (errP == nil) != (errS == nil) {
		t.Fatalf("scheme %s mode %s: packed err %v, scalar err %v", scheme.Name(), mode.Name(), errP, errS)
	}
	return packed, scalar, errP == nil
}

func requireSeriesIdentical(t *testing.T, label string, packed, scalar *Series) {
	t.Helper()
	if packed.Total != scalar.Total {
		t.Errorf("%s: totals differ\npacked %+v\nscalar %+v", label, packed.Total, scalar.Total)
	}
	if len(packed.Windows) != len(scalar.Windows) {
		t.Fatalf("%s: window counts differ: %d vs %d", label, len(packed.Windows), len(scalar.Windows))
	}
	for i := range packed.Windows {
		if packed.Windows[i] != scalar.Windows[i] {
			t.Errorf("%s: window %d differs\npacked %+v\nscalar %+v",
				label, i, packed.Windows[i], scalar.Windows[i])
		}
	}
}

// equivSchemes spans every reaction pattern: all-undetected, parity
// (odd/even), SEC-DED, DEC-TED, and a burst-detection CRC.
func equivSchemes() []ecc.Scheme {
	return []ecc.Scheme{ecc.None{}, ecc.Parity{}, ecc.SECDED{}, ecc.DECTED{}, ecc.CRC{Width: 2}}
}

// equivModes spans packable Mx1 widths (including the full 64-bit word),
// a sparse single-row custom pattern, and modes the packed solver must
// decline (multi-row, wider than a word) so the dispatch fallback is
// exercised through the same assertions.
func equivModes() []bitgeom.FaultMode {
	return []bitgeom.FaultMode{
		bitgeom.Mx1(1),
		bitgeom.Mx1(2),
		bitgeom.Mx1(3),
		bitgeom.Mx1(4),
		bitgeom.Mx1(8),
		bitgeom.Mx1(16),
		bitgeom.Mx1(64),
		bitgeom.Custom("gap3", []bitgeom.Offset{{DRow: 0, DCol: 0}, {DRow: 0, DCol: 2}}),
		bitgeom.Rect(2, 2),
		bitgeom.Mx1(65),
	}
}

// TestSolverEquivalence is the randomized scalar-vs-packed matrix:
// word-boundary row widths x every scheme x every fault mode x both
// preemption rules, each on a fresh seeded random timeline, asserting
// ==-identical Series (Total and every window Result).
func TestSolverEquivalence(t *testing.T) {
	widths := []struct {
		cols, factor int
	}{
		{63, 1}, // one bit short of a word
		{64, 2}, // exactly one word
		{65, 1}, // one bit past a word (straddling extraction)
		{128, 4},
	}
	for _, wc := range widths {
		t.Run(fmt.Sprintf("cols=%d", wc.cols), func(t *testing.T) {
			for si, scheme := range equivSchemes() {
				for mi, mode := range equivModes() {
					for pi, preempt := range []bool{false, true} {
						seed := int64(1000*wc.cols + 100*si + 10*mi + pi)
						r := rand.New(rand.NewSource(seed))
						lay := boundaryLayout(t, 4, wc.cols, wc.factor)
						a := randomTimelineAnalyzer(r, lay, pi == 1, 64, preempt)
						packed, scalar, ok := solveBoth(t, a, scheme, mode, 0)
						if !ok {
							continue
						}
						label := fmt.Sprintf("cols=%d scheme=%s mode=%s preempt=%v seed=%d",
							wc.cols, scheme.Name(), mode.Name(), preempt, seed)
						requireSeriesIdentical(t, label, packed, scalar)
					}
				}
			}
		})
	}
}

// TestSolverEquivalenceWindowed is the AnalyzeWindowed series case:
// per-window counters must match ==, window by window, including windows
// that do not divide the horizon.
func TestSolverEquivalenceWindowed(t *testing.T) {
	for _, window := range []uint64{1, 7, 13, 64, 100} {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			lay := boundaryLayout(t, 4, 65, 1)
			a := randomTimelineAnalyzer(r, lay, false, 64, seed%2 == 0)
			packed, scalar, ok := solveBoth(t, a, ecc.Parity{}, bitgeom.Mx1(3), window)
			if !ok {
				t.Fatalf("window %d seed %d: analysis failed", window, seed)
			}
			requireSeriesIdentical(t, fmt.Sprintf("window=%d seed=%d", window, seed), packed, scalar)
		}
	}
}

// standardLayout is one named-constructor layout of the equivalence
// matrix, with whether its tracker records one version per word.
type standardLayout struct {
	lay          *interleave.Layout
	wordVersions bool
}

// standardLayouts returns the real constructors (way/index-physical,
// intra/inter-thread, logical) plus an aperiodic custom map, so the
// packed row remap handles strided column->word mappings, not just
// identity.
func standardLayouts(t testing.TB) []standardLayout {
	t.Helper()
	mk := []func() (*interleave.Layout, bool, error){
		func() (*interleave.Layout, bool, error) {
			l, err := interleave.WayPhysical(2, 4, 16, 2)
			return l, false, err
		},
		func() (*interleave.Layout, bool, error) {
			l, err := interleave.IndexPhysical(4, 2, 16, 2)
			return l, false, err
		},
		func() (*interleave.Layout, bool, error) {
			l, err := interleave.IntraThread(2, 4, 16, 2)
			return l, true, err
		},
		func() (*interleave.Layout, bool, error) {
			l, err := interleave.InterThread(4, 2, 16, 4)
			return l, true, err
		},
		func() (*interleave.Layout, bool, error) {
			l, err := interleave.Logical(4, 32, 4)
			return l, false, err
		},
		// Aperiodic domain assignment: anchors induce varying offset
		// partitions, forcing the packed solver's per-anchor fallback
		// (the bit-sliced uniform-row path declines the row).
		func() (*interleave.Layout, bool, error) {
			l, err := interleave.NewCustom("aperiodic", bitgeom.Geometry{Rows: 4, Cols: 32}, 4, 32, 5, 1,
				func(p bitgeom.BitPos) (interleave.WordBit, int) {
					return interleave.WordBit{Word: p.Row, Bit: p.Col}, (p.Col * p.Col / 3) % 5
				})
			return l, false, err
		},
	}
	var out []standardLayout
	for _, f := range mk {
		lay, wordVersions, err := f()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, standardLayout{lay, wordVersions})
	}
	return out
}

// TestSolverEquivalenceStandardLayouts runs the matrix over the
// standard layouts.
func TestSolverEquivalenceStandardLayouts(t *testing.T) {
	for li, sl := range standardLayouts(t) {
		lay := sl.lay
		t.Run(lay.Name(), func(t *testing.T) {
			for si, scheme := range equivSchemes() {
				for mi, mode := range equivModes() {
					seed := int64(7777*li + 100*si + mi)
					r := rand.New(rand.NewSource(seed))
					a := randomTimelineAnalyzer(r, lay, sl.wordVersions, 48, li%2 == 0)
					packed, scalar, ok := solveBoth(t, a, scheme, mode, 11)
					if !ok {
						continue
					}
					label := fmt.Sprintf("%s scheme=%s mode=%s seed=%d", lay.Name(), scheme.Name(), mode.Name(), seed)
					requireSeriesIdentical(t, label, packed, scalar)
				}
			}
		})
	}
}

// TestPackedPathTaken pins the dispatch: an eligible mode must actually
// run through the packed solver (not silently fall back to scalar, which
// would make every equivalence assertion vacuous).
func TestPackedPathTaken(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	r := rand.New(rand.NewSource(1))
	a := randomTimelineAnalyzer(r, boundaryLayout(t, 4, 64, 2), false, 32, false)

	before := obs.NewCounter("core.packed_rows").Value()
	if _, err := a.Analyze(ecc.Parity{}, bitgeom.Mx1(2)); err != nil {
		t.Fatal(err)
	}
	if after := obs.NewCounter("core.packed_rows").Value(); after == before {
		t.Fatal("eligible mode did not take the packed path")
	}

	before = obs.NewCounter("core.packed_rows").Value()
	a.ScalarSolve = true
	if _, err := a.Analyze(ecc.Parity{}, bitgeom.Mx1(2)); err != nil {
		t.Fatal(err)
	}
	if after := obs.NewCounter("core.packed_rows").Value(); after != before {
		t.Fatal("ScalarSolve analyzer still took the packed path")
	}
	a.ScalarSolve = false

	SetScalarSolve(true)
	defer SetScalarSolve(false)
	before = obs.NewCounter("core.packed_rows").Value()
	if _, err := a.Analyze(ecc.Parity{}, bitgeom.Mx1(2)); err != nil {
		t.Fatal(err)
	}
	if after := obs.NewCounter("core.packed_rows").Value(); after != before {
		t.Fatal("-scalar-solve escape hatch still took the packed path")
	}
}

// TestSolverConcurrentPaths solves the same run concurrently from both
// solver paths (sharing one tracker, graph, and layout, each analysis
// itself internally sharded) — the race-detector leg of the equivalence
// harness. SEC-DED 2x1 over x2 interleaving is all-corrected (every
// region is one corrected bit), so its packed leg skips every row; a
// batch of counted queries, which must come out non-zero, keeps the
// packed sweep itself under the detector.
func TestSolverConcurrentPaths(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	lay := boundaryLayout(t, 8, 64, 2)
	base := randomTimelineAnalyzer(r, lay, false, 96, false)
	base.Parallelism = 4

	packedA := *base
	scalarA := *base
	scalarA.ScalarSolve = true

	batch := []Query{
		{ecc.SECDED{}, bitgeom.Mx1(2)},
		{ecc.Parity{}, bitgeom.Mx1(2)},
		{ecc.None{}, bitgeom.Mx1(3)},
		{ecc.SECDED{}, bitgeom.Mx1(4)},
		{ecc.DECTED{}, bitgeom.Mx1(8)},
	}
	want, err := scalarA.AnalyzeMany(17, batch)
	if err != nil {
		t.Fatal(err)
	}
	if want[0].Total.Counters != (Counters{}) {
		t.Fatalf("SEC-DED 2x1 over x2 counted %+v, want all-corrected zero", want[0].Total.Counters)
	}
	for i, s := range want[1:] {
		if s.Total.Counters == (Counters{}) {
			t.Fatalf("query %d (%s %s) counted nothing", i+1, batch[i+1].Scheme.Name(), batch[i+1].Mode.Name())
		}
	}

	var wg sync.WaitGroup
	results := make([][]*Series, 8)
	errs := make([]error, 8)
	for i := range results {
		a := &packedA
		if i%2 == 1 {
			a = &scalarA
		}
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			if i%4 == 0 {
				// The all-corrected query alone, as before batching.
				var s *Series
				s, errs[i] = a.AnalyzeWindowed(batch[0].Scheme, batch[0].Mode, 17)
				results[i] = []*Series{s}
				return
			}
			results[i], errs[i] = a.AnalyzeMany(17, batch)
		}(i, a)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		for q, s := range results[i] {
			requireSeriesIdentical(t, fmt.Sprintf("goroutine %d query %d", i, q), s, want[q])
		}
	}
}
