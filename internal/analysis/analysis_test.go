package analysis

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/lifetime"
	"mbavf/internal/sim"
	"mbavf/internal/store"
	"mbavf/internal/store/mem"
)

// countingRanged is a ranged in-memory backend that counts the section
// reads it serves: a stored run's sections transfer through them.
type countingRanged struct {
	*mem.Backend
	reads atomic.Int64
}

func (b *countingRanged) ReadSection(ctx context.Context, key string, off, n int64) ([]byte, error) {
	b.reads.Add(1)
	return b.Backend.ReadSection(ctx, key, off, n)
}

// twins simulates vecadd and loads its recording back from a ranged
// store: the same run, materialized and stored.
func twins(t *testing.T) (mat, stored Run, b *countingRanged) {
	t.Helper()
	ctx := context.Background()
	m, _, err := store.LoadOrSimulate(ctx, nil, "vecadd", nil)
	if err != nil {
		t.Fatal(err)
	}
	b = &countingRanged{Backend: mem.NewRanged()}
	st := store.NewStore(b)
	if err := st.Put(ctx, store.KeyFor("vecadd", sim.DefaultConfig()), m); err != nil {
		t.Fatal(err)
	}
	a, err := st.LoadWorkload(ctx, "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	return Run{M: m}, Run{M: a.Meta().Measurements(), Art: a}, b
}

// TestAnalyzerQuestions asks every structure × style × factor {1, 2, 4}
// of one materialized run and its stored twin. The materialized run's
// analyzer reads the run's own tracker, the twin's answers == to it, and
// both carry the structure's rules: word versions for the register file
// only, detection preempting SDC under inter-thread interleaving only,
// the workload as Name, and the layout names the solver has always
// used. A style the structure does not take and a factor its geometry
// cannot take are errors that read no section of the stored run.
func TestAnalyzerQuestions(t *testing.T) {
	mat, stored, b := twins(t)

	before := b.reads.Load()
	bad := []struct {
		st     Structure
		style  Style
		factor int
	}{
		{L1, IntraThread, 2},
		{L2, InterThread, 2},
		{VGPR, WayPhysical, 2},
		{VGPR, Logical, 1},
		{L1, WayPhysical, 3},
		{L2, IndexPhysical, 3},
		{L1, Logical, 3},
		{VGPR, IntraThread, 3},
		{VGPR, InterThread, 3},
		{L1, Logical, 0},
		{Structure("l3"), Logical, 1},
	}
	for _, q := range bad {
		for _, r := range []Run{mat, stored} {
			if _, err := r.Analyzer(q.st, q.style, q.factor); err == nil {
				t.Errorf("%s %s x%d: no error", q.st, q.style, q.factor)
			}
		}
	}
	if n := b.reads.Load() - before; n != 0 {
		t.Errorf("bad questions read %d sections of the stored run", n)
	}

	cacheStyles := []Style{Logical, WayPhysical, IndexPhysical}
	questions := []struct {
		st      Structure
		tracker *lifetime.Tracker
		styles  []Style
	}{
		{L1, mat.M.L1Tracker, cacheStyles},
		{L2, mat.M.L2Tracker, cacheStyles},
		{VGPR, mat.M.VGPRTracker, []Style{IntraThread, InterThread}},
	}
	mode := bitgeom.Mx1(2)
	for _, q := range questions {
		for _, style := range q.styles {
			for _, factor := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s %s x%d", q.st, style, factor)
				an, err := mat.Analyzer(q.st, style, factor)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				twin, err := stored.Analyzer(q.st, style, factor)
				if err != nil {
					t.Fatalf("%s stored: %v", label, err)
				}
				if an.Tracker != q.tracker {
					t.Errorf("%s: analyzer does not read the run's own tracker", label)
				}
				layout := fmt.Sprintf("%s-x%d", style, factor)
				if style == Logical && factor == 1 {
					layout = "logical"
				}
				for side, a := range map[string]*core.Analyzer{"materialized": an, "stored": twin} {
					if a.Name != "vecadd" {
						t.Errorf("%s %s: Name %q, want vecadd", label, side, a.Name)
					}
					if got := a.Layout.Name(); got != layout {
						t.Errorf("%s %s: layout %q, want %q", label, side, got, layout)
					}
					if a.WordVersions != (q.st == VGPR) {
						t.Errorf("%s %s: WordVersions %v", label, side, a.WordVersions)
					}
					if a.DetectionPreemptsSDC != (style == InterThread) {
						t.Errorf("%s %s: DetectionPreemptsSDC %v", label, side, a.DetectionPreemptsSDC)
					}
					if a.TotalCycles != mat.M.Cycles {
						t.Errorf("%s %s: TotalCycles %d, want %d", label, side, a.TotalCycles, mat.M.Cycles)
					}
				}
				want, err := an.Analyze(ecc.Parity{}, mode)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := twin.Analyze(ecc.Parity{}, mode)
				if err != nil {
					t.Fatalf("%s stored: %v", label, err)
				}
				if *got != *want {
					t.Errorf("%s: stored %+v, materialized %+v", label, *got, *want)
				}
			}
		}
	}
}

func TestWindow(t *testing.T) {
	for _, c := range []struct {
		cycles uint64
		n      int
		want   uint64
	}{
		{12, 4, 3},
		{13, 4, 4},
		{3, 12, 1},
		{0, 4, 1},
		{12, 0, 12},
		{12, -1, 12},
	} {
		if got := Window(c.cycles, c.n); got != c.want {
			t.Errorf("Window(%d, %d) = %d, want %d", c.cycles, c.n, got, c.want)
		}
	}
}
