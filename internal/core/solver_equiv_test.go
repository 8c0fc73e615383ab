package core

// Packed-vs-oracle solver equivalence harness. The word-packed band
// sweep (packed.go) must produce results bit-identical (==, not
// approximately) to the per-group scalar oracle (oracle_test.go) for
// every scheme x fault-mode combination, including geometries whose row
// widths straddle 64-bit word boundaries, multi-row modes, and modes
// wider than a word. These tests are the proof the solver leans on.

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

// solveBoth runs the same windowed analysis through the packed solver
// and the oracle. Error outcomes must agree; on success both series are
// returned.
func solveBoth(t *testing.T, a *Analyzer, scheme ecc.Scheme, mode bitgeom.FaultMode, window uint64) (packed, oracle *Series, ok bool) {
	t.Helper()
	packed, errP := a.AnalyzeWindowed(scheme, mode, window)
	oracle, errO := a.oracleSolve(scheme, mode, window)
	if (errP == nil) != (errO == nil) {
		t.Fatalf("scheme %s mode %s: packed err %v, oracle err %v", scheme.Name(), mode.Name(), errP, errO)
	}
	return packed, oracle, errP == nil
}

func requireSeriesIdentical(t *testing.T, label string, got, want *Series) {
	t.Helper()
	if got.Total != want.Total {
		t.Errorf("%s: totals differ\n got %+v\nwant %+v", label, got.Total, want.Total)
	}
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("%s: window counts differ: %d vs %d", label, len(got.Windows), len(want.Windows))
	}
	for i := range got.Windows {
		if got.Windows[i] != want.Windows[i] {
			t.Errorf("%s: window %d differs\n got %+v\nwant %+v",
				label, i, got.Windows[i], want.Windows[i])
		}
	}
}

// equivSchemes spans every reaction pattern: all-undetected, parity
// (odd/even), SEC-DED, DEC-TED, and a burst-detection CRC.
func equivSchemes() []ecc.Scheme {
	return []ecc.Scheme{ecc.None{}, ecc.Parity{}, ecc.SECDED{}, ecc.DECTED{}, ecc.CRC{Width: 2}}
}

// equivModes spans Mx1 widths up to the full 64-bit word, one past it,
// and one (130) whose anchors reach across more than two occupancy
// words; a sparse single-row custom pattern; and multi-row modes: two
// and three rows tall, and a non-rectangular diagonal pair.
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
		bitgeom.Rect(3, 2),
		bitgeom.Custom("diag", []bitgeom.Offset{{DRow: 0, DCol: 0}, {DRow: 1, DCol: 1}}),
		bitgeom.Mx1(130),
	}
}

// equivWidths are the row widths of the boundary layouts: one bit short
// of a word, exactly one word, one bit past a word (straddling
// extraction), two words, and wide enough for Mx1(130).
var equivWidths = []struct{ cols, factor int }{{63, 1}, {64, 2}, {65, 1}, {128, 4}, {200, 2}}

// TestSolverEquivalence is the randomized packed-vs-oracle matrix:
// word-boundary row widths x every scheme x every fault mode x both
// preemption rules, each on a fresh seeded random timeline, asserting
// ==-identical Series (Total and every window Result).
func TestSolverEquivalence(t *testing.T) {
	for _, wc := range equivWidths {
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
			packed, oracle, ok := solveBoth(t, a, ecc.Parity{}, bitgeom.Mx1(3), window)
			if !ok {
				t.Fatalf("window %d seed %d: analysis failed", window, seed)
			}
			requireSeriesIdentical(t, fmt.Sprintf("window=%d seed=%d", window, seed), packed, oracle)
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
		// partitions, so a band holds many partition classes.
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
					packed, oracle, ok := solveBoth(t, a, scheme, mode, 11)
					if !ok {
						continue
					}
					label := fmt.Sprintf("%s scheme=%s mode=%s seed=%d", lay.Name(), scheme.Name(), mode.Name(), seed)
					requireSeriesIdentical(t, label, packed, oracle)
				}
			}
		})
	}
}

// TestPackedPathTaken pins that fault modes taller than one row or wider
// than a word run through the packed band sweep: each sweeps one band
// per anchor row (the equivalence assertions would otherwise compare
// nothing new).
func TestPackedPathTaken(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	r := rand.New(rand.NewSource(1))
	lay := boundaryLayout(t, 4, 128, 2)
	a := randomTimelineAnalyzer(r, lay, false, 32, false)
	bands := obs.NewCounter("core.packed_rows")
	for _, mode := range []bitgeom.FaultMode{bitgeom.Rect(2, 2), bitgeom.Rect(2, 4), bitgeom.Mx1(65)} {
		before := bands.Value()
		if _, err := a.Analyze(ecc.Parity{}, mode); err != nil {
			t.Fatal(err)
		}
		h, _ := mode.Bounds()
		if n, want := bands.Value()-before, uint64(lay.Geom.Rows-h+1); n != want {
			t.Errorf("%s: core.packed_rows grew by %d, want %d bands", mode.Name(), n, want)
		}
	}
}

// TestSolverConcurrentPaths solves the same run concurrently from many
// goroutines (sharing one tracker, graph, and layout, each analysis
// itself internally sharded) and compares every result with one serial
// oracle solve — the race-detector leg of the equivalence harness.
// SEC-DED 2x1 over x2 interleaving is all-corrected (every region is one
// corrected bit), so it skips every band; the counted queries, which
// must come out non-zero, keep the band sweep itself under the detector,
// including a multi-row mode.
func TestSolverConcurrentPaths(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	lay := boundaryLayout(t, 8, 64, 2)
	a := randomTimelineAnalyzer(r, lay, false, 96, false)

	batch := []Query{
		{ecc.SECDED{}, bitgeom.Mx1(2)},
		{ecc.Parity{}, bitgeom.Mx1(2)},
		{ecc.None{}, bitgeom.Mx1(3)},
		{ecc.SECDED{}, bitgeom.Mx1(4)},
		{ecc.DECTED{}, bitgeom.Mx1(8)},
		{ecc.Parity{}, bitgeom.Rect(2, 2)},
	}
	a.Parallelism = 1
	want := make([]*Series, len(batch))
	for i, q := range batch {
		s, err := a.oracleSolve(q.Scheme, q.Mode, 17)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	if want[0].Total.Counters != (Counters{}) {
		t.Fatalf("SEC-DED 2x1 over x2 counted %+v, want all-corrected zero", want[0].Total.Counters)
	}
	for i, s := range want[1:] {
		if s.Total.Counters == (Counters{}) {
			t.Fatalf("query %d (%s %s) counted nothing", i+1, batch[i+1].Scheme.Name(), batch[i+1].Mode.Name())
		}
	}

	a.Parallelism = 4
	var wg sync.WaitGroup
	results := make([][]*Series, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				// The all-corrected query alone, as before batching.
				var s *Series
				s, errs[i] = a.AnalyzeWindowed(batch[0].Scheme, batch[0].Mode, 17)
				results[i] = []*Series{s}
				return
			}
			results[i], errs[i] = a.AnalyzeMany(17, batch)
		}(i)
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
