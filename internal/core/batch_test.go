package core

// Batched-sweep equivalence suite. AnalyzeMany solves a batch of
// (scheme, mode) queries over one layout with one packed band sweep per
// mode height; every query's Series must be == both the oracle's and the
// same query solved alone, whatever else shares the batch.

import (
	"fmt"
	"math/rand"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/obs"
)

// shiftingLayout builds a layout whose pattern of which columns share a
// protection domain changes from row to row: row r interleaves
// periods[r] domains. Rows 0 and 1 repeat one pattern with shifted ids
// (the anchor tables carry over), rows 4 and 5 repeat one pattern with
// permuted ids, and every other row boundary changes the pattern, so
// each query's anchor tables must be rebuilt. Rows are 72 columns wide,
// straddling a 64-bit word.
func shiftingLayout(t testing.TB) *interleave.Layout {
	t.Helper()
	periods := []int{2, 2, 3, 1, 3, 3}
	rows, cols := len(periods), 72
	lay, err := interleave.NewCustom("shifting", bitgeom.Geometry{Rows: rows, Cols: cols},
		rows, cols, rows*64, 1,
		func(p bitgeom.BitPos) (interleave.WordBit, int) {
			per := periods[p.Row]
			d := p.Col % per
			if p.Row == 5 {
				d = per - 1 - d
			}
			return interleave.WordBit{Word: p.Row, Bit: p.Col}, p.Row*64 + d
		})
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// batchLayout is one layout of the batched suite.
type batchLayout struct {
	lay          *interleave.Layout
	wordVersions bool
}

func batchLayouts(t testing.TB) []batchLayout {
	var out []batchLayout
	for _, wc := range equivWidths {
		out = append(out, batchLayout{boundaryLayout(t, 4, wc.cols, wc.factor), wc.cols%2 == 0})
	}
	for _, sl := range standardLayouts(t) {
		out = append(out, batchLayout(sl))
	}
	return append(out, batchLayout{shiftingLayout(t), false})
}

// queryPool is every (scheme, mode) pair of the packed-vs-oracle
// matrix.
func queryPool() []Query {
	var pool []Query
	for _, s := range equivSchemes() {
		for _, m := range equivModes() {
			pool = append(pool, Query{Scheme: s, Mode: m})
		}
	}
	return pool
}

// fitting keeps the queries whose mode fits the layout's geometry.
func fitting(lay *interleave.Layout, qs []Query) []Query {
	var out []Query
	for _, q := range qs {
		if lay.Geom.GroupCount(q.Mode) > 0 {
			out = append(out, q)
		}
	}
	return out
}

// randomBatch draws 2-9 queries from pool with at least one duplicate,
// in random order.
func randomBatch(r *rand.Rand, pool []Query) []Query {
	n := 2 + r.Intn(8)
	batch := make([]Query, 0, n+1)
	for i := 0; i < n; i++ {
		batch = append(batch, pool[r.Intn(len(pool))])
	}
	batch = append(batch, batch[r.Intn(len(batch))])
	r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch
}

// requireBatchMatches solves batch with AnalyzeMany and checks every
// query against the same query solved alone and the oracle. It returns
// the batch's series.
func requireBatchMatches(t *testing.T, label string, a *Analyzer, batch []Query, window uint64) []*Series {
	t.Helper()
	got, err := a.AnalyzeMany(window, batch)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(batch) {
		t.Fatalf("%s: %d series for %d queries", label, len(got), len(batch))
	}
	for i, q := range batch {
		alone, oracle, ok := solveBoth(t, a, q.Scheme, q.Mode, window)
		if !ok {
			t.Fatalf("%s: query %d (%s %s) failed alone", label, i, q.Scheme.Name(), q.Mode.Name())
		}
		ql := fmt.Sprintf("%s query %d (%s %s)", label, i, q.Scheme.Name(), q.Mode.Name())
		requireSeriesIdentical(t, ql+" vs alone", got[i], alone)
		requireSeriesIdentical(t, ql+" vs oracle", got[i], oracle)
	}
	return got
}

// TestBatchEquivalence is the randomized batch matrix: every layout x
// both preemption rules x windows {0, non-dividing} x Parallelism 1-4,
// over random batches with duplicates, permuted order, and modes of
// several heights and widths mixed in.
func TestBatchEquivalence(t *testing.T) {
	pool := queryPool()
	batches := 0
	for li, bl := range batchLayouts(t) {
		lay := bl.lay
		fit := fitting(lay, pool)
		t.Run(lay.Name(), func(t *testing.T) {
			for pi, preempt := range []bool{false, true} {
				for wi, window := range []uint64{0, 13} {
					seed := int64(1000*li + 10*pi + wi)
					r := rand.New(rand.NewSource(seed))
					a := randomTimelineAnalyzer(r, lay, bl.wordVersions, 64, preempt)
					a.Parallelism = 1 + (pi*2+wi)%4
					batch := randomBatch(r, fit)
					label := fmt.Sprintf("%s preempt=%v window=%d parallelism=%d seed=%d",
						lay.Name(), preempt, window, a.Parallelism, seed)
					want := requireBatchMatches(t, label, a, batch, window)
					batches++

					// The same batch reversed, at another parallelism:
					// order and sharding change nothing.
					rev := make([]Query, len(batch))
					for i, q := range batch {
						rev[len(batch)-1-i] = q
					}
					a.Parallelism = 4 - (pi*2+wi)%4
					got, err := a.AnalyzeMany(window, rev)
					if err != nil {
						t.Fatal(err)
					}
					for i := range batch {
						requireSeriesIdentical(t, fmt.Sprintf("%s reversed query %d", label, i), got[len(batch)-1-i], want[i])
					}
				}
			}
		})
	}
	if batches < 40 {
		t.Fatalf("only %d random batches ran", batches)
	}
}

// TestBatchRandomized draws many more small random batches over the
// layouts whose domain pattern varies (boundary widths, the aperiodic
// map, the row-shifting map) to stress partition-class reuse.
func TestBatchRandomized(t *testing.T) {
	layouts := batchLayouts(t)
	pool := queryPool()
	n := 120
	if testing.Short() {
		n = 30
	}
	for i := 0; i < n; i++ {
		r := rand.New(rand.NewSource(int64(50000 + i)))
		bl := layouts[r.Intn(len(layouts))]
		a := randomTimelineAnalyzer(r, bl.lay, bl.wordVersions, 48+uint64(r.Intn(40)), r.Intn(2) == 0)
		a.Parallelism = 1 + r.Intn(4)
		window := []uint64{0, 7, 13}[r.Intn(3)]
		label := fmt.Sprintf("batch %d %s window=%d parallelism=%d", i, bl.lay.Name(), window, a.Parallelism)
		requireBatchMatches(t, label, a, randomBatch(r, fitting(bl.lay, pool)), window)
	}
}

// TestBatchAllCorrected pins the all-corrected skip: a batch whose every
// region is corrected counts nothing, keeps its SB-AVF totals, packs no
// row, and reports every (query, row) pair as skipped.
func TestBatchAllCorrected(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	packedRows := obs.NewCounter("core.packed_rows")
	skipped := obs.NewCounter("core.rows_skipped")
	analyses := obs.NewCounter("core.analyses")

	r := rand.New(rand.NewSource(5))
	lay := boundaryLayout(t, 6, 64, 2)
	a := randomTimelineAnalyzer(r, lay, false, 64, false)
	a.Parallelism = 3
	// SEC-DED corrects one flip per domain and DEC-TED two; over x2
	// interleaving a 2x1 fault leaves one flip per domain.
	batch := []Query{
		{ecc.SECDED{}, bitgeom.Mx1(1)},
		{ecc.SECDED{}, bitgeom.Mx1(2)},
		{ecc.DECTED{}, bitgeom.Mx1(4)},
	}
	rows0, skip0, an0 := packedRows.Value(), skipped.Value(), analyses.Value()
	got, err := a.AnalyzeMany(9, batch)
	if err != nil {
		t.Fatal(err)
	}
	if n := packedRows.Value() - rows0; n != 0 {
		t.Errorf("all-corrected batch packed %d rows, want 0", n)
	}
	if n, want := skipped.Value()-skip0, uint64(len(batch)*lay.Geom.Rows); n != want {
		t.Errorf("core.rows_skipped = %d, want %d", n, want)
	}
	if n, want := analyses.Value()-an0, uint64(len(batch)); n != want {
		t.Errorf("core.analyses = %d, want one per query (%d)", n, want)
	}
	requireBatchMatches(t, "all-corrected", a, batch, 9)
	for i, s := range got {
		if s.Total.Counters != (Counters{}) {
			t.Errorf("query %d: counters %+v, want zero", i, s.Total.Counters)
		}
		if s.Total.BitUarch == 0 || s.Total.BitLive == 0 {
			t.Errorf("query %d: SB-AVF totals lost: %+v", i, s.Total)
		}
	}

	// One counted query joins: every row is packed once for the batch,
	// and the corrected queries still skip every row.
	batch = append(batch, Query{ecc.Parity{}, bitgeom.Mx1(2)})
	rows0, skip0 = packedRows.Value(), skipped.Value()
	if _, err := a.AnalyzeMany(0, batch); err != nil {
		t.Fatal(err)
	}
	if n, want := packedRows.Value()-rows0, uint64(lay.Geom.Rows); n != want {
		t.Errorf("core.packed_rows = %d, want %d (one sweep per row for the batch)", n, want)
	}
	if n, want := skipped.Value()-skip0, uint64(3*lay.Geom.Rows); n != want {
		t.Errorf("core.rows_skipped = %d, want %d", n, want)
	}
}

// TestBatchErrors pins the batch's error contract: one mode that does
// not fit the geometry fails the whole batch before any work, and an
// empty batch returns no series.
func TestBatchErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomTimelineAnalyzer(r, boundaryLayout(t, 4, 63, 1), false, 32, false)
	if _, err := a.AnalyzeMany(0, []Query{{ecc.Parity{}, bitgeom.Mx1(2)}, {ecc.Parity{}, bitgeom.Mx1(65)}}); err == nil {
		t.Error("batch with a mode wider than the row succeeded")
	}
	got, err := a.AnalyzeMany(0, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty batch = %v, %v", got, err)
	}
}
