package core

// The tracker's ACE summary and the never-ACE band skip. AnalyzeMany
// takes the whole-run SB-AVF numerators and the set of ever-ACE words
// from lifetime.Tracker.Summary; these tests pin that a summary is never
// stale and that the skipped bands are exactly the ones no ACE word
// reaches.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/dataflow"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
	"mbavf/internal/obs"
)

// solvedGraph returns a solved graph of n versions with random live
// masks, about half of them read at a random cycle below horizon.
func solvedGraph(r *rand.Rand, n int, horizon interval.Cycle) *dataflow.Graph {
	g := dataflow.NewGraph()
	for i := 0; i < n; i++ {
		v := g.New(dataflow.TransferNone, 0)
		g.MarkRootLive(v, r.Uint32())
		if r.Intn(2) == 0 {
			g.NoteRead(v, interval.Cycle(r.Intn(int(horizon))))
		}
	}
	g.Solve()
	return g
}

// recordWords drives random events over [from, to) into every byte of
// the given words, naming versions below n.
func recordWords(r *rand.Rand, tr *lifetime.Tracker, words []int, n int, from, to interval.Cycle) {
	for _, w := range words {
		for b := 0; b < tr.BytesPerWord(); b++ {
			for c := from + interval.Cycle(r.Intn(4)); c < to; c += 1 + interval.Cycle(r.Intn(6)) {
				switch r.Intn(4) {
				case 0:
					tr.Open(w, b, c, dataflow.VersionID(r.Intn(n)))
				case 1:
					tr.Read(w, b, c)
				case 2:
					tr.CloseClean(w, b, c)
				default:
					tr.CloseDirty(w, b, c)
				}
			}
		}
	}
}

// requireBatchOracle solves batch with AnalyzeMany and checks every
// query == the oracle, returning the batch's series.
func requireBatchOracle(t *testing.T, label string, a *Analyzer, batch []Query, window interval.Cycle) []*Series {
	t.Helper()
	got, err := a.AnalyzeMany(window, batch)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, q := range batch {
		want, err := a.oracleSolve(q.Scheme, q.Mode, window)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		requireSeriesIdentical(t, fmt.Sprintf("%s query %d (%s %s)", label, i, q.Scheme.Name(), q.Mode.Name()), got[i], want)
	}
	return got
}

// TestSummaryNeverStale analyzes an unfinished tracker, records more
// and analyzes again, then pairs the finished tracker with a second
// graph and with a shorter horizon: every answer must be == the
// oracle's, which resolves every segment afresh.
func TestSummaryNeverStale(t *testing.T) {
	const horizon, versions = interval.Cycle(160), 48
	r := rand.New(rand.NewSource(21))
	lay := boundaryLayout(t, 6, 64, 2)
	tr := lifetime.NewTracker(lay.Words, lay.WordBits/8)
	g1, g2 := solvedGraph(r, versions, horizon), solvedGraph(r, versions, horizon)
	a := &Analyzer{Layout: lay, Tracker: tr, Graph: g1, TotalCycles: horizon, Parallelism: 2}
	batch := []Query{{ecc.Parity{}, bitgeom.Mx1(2)}, {ecc.None{}, bitgeom.Rect(2, 2)}}

	// Only words 0 and 3 have recorded anything yet.
	recordWords(r, tr, []int{0, 3}, versions, 0, horizon/2)
	early := requireBatchOracle(t, "unfinished", a, batch, 0)
	recordWords(r, tr, []int{0, 1, 2, 3, 4, 5}, versions, horizon/2, horizon)
	late := requireBatchOracle(t, "unfinished after more recording", a, batch, 0)
	if late[0].Total == early[0].Total {
		t.Fatal("recording more changed no answer; the test shows nothing")
	}

	tr.Finish(horizon)
	for _, c := range []struct {
		label   string
		g       *dataflow.Graph
		horizon interval.Cycle
	}{
		{"finished", g1, horizon},
		{"second graph", g2, horizon},
		{"shorter horizon", g2, horizon / 2},
		{"first graph again", g1, horizon},
	} {
		a.Graph, a.TotalCycles = c.g, c.horizon
		for _, window := range []interval.Cycle{0, 11} {
			requireBatchOracle(t, fmt.Sprintf("%s window=%d", c.label, window), a, batch, window)
		}
	}
}

// TestBandsEmpty pins the never-ACE band skip on a way-physical layout
// whose ever-ACE words sit in known rows. A batch mixing one- and
// two-row modes counts, per mode height, each band none of whose rows
// holds an ever-ACE word in core.bands_empty, still counts every band in
// core.packed_rows, and answers == the oracle.
func TestBandsEmpty(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	packedRows := obs.NewCounter("core.packed_rows")
	bandsEmpty := obs.NewCounter("core.bands_empty")

	const horizon, versions = interval.Cycle(120), 40
	r := rand.New(rand.NewSource(22))
	// 8 sets x 4 ways of 64-bit lines, 2-way interleaved: 16 rows, row
	// k holding words 2k and 2k+1.
	lay, err := interleave.WayPhysical(8, 4, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	aceRows := []int{1, 2, 7, 15}
	tr := lifetime.NewTracker(lay.Words, lay.WordBits/8)
	g := dataflow.NewGraph()
	for i := 0; i < versions; i++ {
		v := g.New(dataflow.TransferNone, 0)
		g.MarkRootLive(v, r.Uint32())
		if i%2 == 0 {
			g.NoteRead(v, horizon/2) // dirty evictions after this are never ACE
		}
	}
	g.Solve()
	for w := 0; w < lay.Words; w++ {
		for b := 0; b < tr.BytesPerWord(); b++ {
			v := dataflow.VersionID(r.Intn(versions))
			tr.Open(w, b, interval.Cycle(r.Intn(10)), v)
			// One word of each ACE row is read: the row's odd word in
			// odd rows, its even word in even rows.
			if slices.Contains(aceRows, w/2) && w%2 == (w/2)%2 {
				tr.Read(w, b, 30+interval.Cycle(r.Intn(20)))
			}
			// Every word also holds time that is not uarch-ACE: a dirty
			// eviction after the version's last read.
			tr.CloseDirty(w, b, horizon/2+interval.Cycle(1+r.Intn(20)))
			tr.Open(w, b, horizon-20, v)
		}
	}
	tr.Finish(horizon)

	a := &Analyzer{Layout: lay, Tracker: tr, Graph: g, TotalCycles: horizon}
	batch := []Query{
		{ecc.Parity{}, bitgeom.Mx1(2)},
		{ecc.SECDED{}, bitgeom.Mx1(2)}, // all-corrected over x2: skips every band
		{ecc.None{}, bitgeom.Rect(2, 3)},
		{ecc.Parity{}, bitgeom.Mx1(3)},
	}
	var wantEmpty, wantRows uint64
	for _, h := range []int{1, 2} {
		for band := 0; band+h <= lay.Geom.Rows; band++ {
			wantRows++
			if !slices.ContainsFunc(aceRows, func(row int) bool { return row >= band && row < band+h }) {
				wantEmpty++
			}
		}
	}
	for _, parallelism := range []int{1, 3} {
		for _, window := range []interval.Cycle{0, 7} {
			a.Parallelism = parallelism
			label := fmt.Sprintf("parallelism=%d window=%d", parallelism, window)
			rows0, empty0 := packedRows.Value(), bandsEmpty.Value()
			got := requireBatchOracle(t, label, a, batch, window)
			if n := bandsEmpty.Value() - empty0; n != wantEmpty {
				t.Errorf("%s: core.bands_empty grew by %d, want %d", label, n, wantEmpty)
			}
			if n := packedRows.Value() - rows0; n != wantRows {
				t.Errorf("%s: core.packed_rows grew by %d, want %d", label, n, wantRows)
			}
			if got[0].Total.Counters.DUE == 0 {
				t.Fatalf("%s: parity 2x1 counted nothing; the test shows nothing", label)
			}
		}
	}
}
