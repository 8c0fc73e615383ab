package dataflow

import (
	"math/rand"
	"strings"
	"testing"

	"mbavf/internal/interval"
)

// randomGraphs records the same random version stream, with root
// liveness and reads noted along the way, into a paged graph and the
// flat reference, long enough to span several recording pages.
func randomGraphs(t *testing.T, seed int64, versions int) (*Graph, *refGraph) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g, ref := NewGraph(), newRefGraph()
	transfers := []Transfer{TransferNone, TransferAll, TransferMove, TransferArith, TransferAnd, TransferOr,
		TransferShl, TransferShr, TransferSelect, TransferByte, TransferAssemble}
	var cycle interval.Cycle
	for g.Len() < versions {
		tr := transfers[r.Intn(len(transfers))]
		n := r.Intn(maxDeps + 1)
		switch tr {
		case TransferNone:
			n = 0
		case TransferSelect:
			n = 2
		case TransferAnd, TransferOr, TransferShl, TransferShr, TransferByte:
			n = 1 + r.Intn(2)
		}
		deps := make([]VersionID, n)
		for i := range deps {
			// Mostly recent values, sometimes far back across pages.
			back := 1 + r.Intn(64)
			if r.Intn(8) == 0 {
				back = 1 + r.Intn(g.Len())
			}
			deps[i] = VersionID(max(g.Len()-back, 0))
		}
		aux, aux2 := r.Uint32(), r.Uint32()
		id := g.New2(tr, aux, aux2, deps...)
		if rid := ref.New2(tr, aux, aux2, deps...); rid != id {
			t.Fatalf("version id %d, reference %d", id, rid)
		}
		for k := r.Intn(3); k > 0; k-- {
			v := VersionID(r.Intn(g.Len()))
			cycle += interval.Cycle(r.Intn(5))
			g.NoteRead(v, cycle)
			ref.NoteRead(v, cycle)
		}
		if r.Intn(16) == 0 {
			v, m := VersionID(r.Intn(g.Len())), r.Uint32()
			g.MarkRootLive(v, m)
			ref.MarkRootLive(v, m)
		}
	}
	return g, ref
}

// TestGraphMatchesReferenceAcrossPages checks the paged recorder
// against the flat reference over random graphs spanning several
// pages: read facts before Solve, then live masks and read facts after
// it, for every version.
func TestGraphMatchesReferenceAcrossPages(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, ref := randomGraphs(t, seed, 3*pageVersions+int(seed)*97)
		if len(g.pages) < 4 {
			t.Fatalf("seed %d: %d versions fill %d pages, want at least 4", seed, g.Len(), len(g.pages))
		}
		if g.Len() != ref.Len() {
			t.Fatalf("seed %d: Len %d, reference %d", seed, g.Len(), ref.Len())
		}
		check := func(when string, live bool) {
			for id := VersionID(0); int(id) < ref.Len(); id++ {
				if g.EverRead(id) != ref.EverRead(id) {
					t.Fatalf("seed %d %s: EverRead(%d) = %v, reference %v", seed, when, id, g.EverRead(id), ref.EverRead(id))
				}
				for _, c := range []interval.Cycle{0, ref.lastRead[id] - 1, ref.lastRead[id]} {
					if g.ReadAfter(id, c) != ref.ReadAfter(id, c) {
						t.Fatalf("seed %d %s: ReadAfter(%d, %d) = %v, reference %v", seed, when, id, c, g.ReadAfter(id, c), ref.ReadAfter(id, c))
					}
				}
				if live && g.Live(id) != ref.live[id] {
					t.Fatalf("seed %d %s: Live(%d) = %#x, reference %#x", seed, when, id, g.Live(id), ref.live[id])
				}
			}
		}
		check("before Solve", false)
		g.Solve()
		ref.Solve()
		if g.pages != nil {
			t.Errorf("seed %d: Solve kept %d recording pages", seed, len(g.pages))
		}
		if g.Len() != ref.Len() {
			t.Fatalf("seed %d: Len after Solve %d, reference %d", seed, g.Len(), ref.Len())
		}
		check("after Solve", true)
		s := g.Solved()
		if len(s.Live) != ref.Len() || cap(s.Live) != ref.Len() || cap(s.LastRead) != ref.Len() || cap(s.EverRead) != ref.Len() {
			t.Errorf("seed %d: solved slices are %d/%d/%d long, want exactly %d",
				seed, cap(s.Live), cap(s.LastRead), cap(s.EverRead), ref.Len())
		}
		dead := 0
		for _, m := range ref.live[1:] {
			if m == 0 {
				dead++
			}
		}
		if st := g.Stats(); st.Versions != ref.Len()-1 || st.DeadCount != dead {
			t.Errorf("seed %d: Stats %+v, want %d versions, %d dead", seed, st, ref.Len()-1, dead)
		}
	}
}

// mustPanic runs f and checks that it panics with a message containing
// want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", name)
			return
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %v, want it to mention %q", name, r, want)
		}
	}()
	f()
}

// TestGraphPanicsAcrossPages checks the recorder's panics on a graph
// spanning several pages, and that a rejected version leaves the graph
// as it was: the next version takes the rejected one's id.
func TestGraphPanicsAcrossPages(t *testing.T) {
	g, _ := randomGraphs(t, 9, 2*pageVersions)
	// Stop one short of a page boundary, so a rejected version there
	// must not open a page.
	for g.Len()%pageVersions != pageVersions-1 {
		g.New(TransferNone, 0)
	}
	n, pages := g.Len(), len(g.pages)
	mustPanic(t, "too many deps", "too many dependencies", func() { g.New(TransferMove, 0, 1, 2, 3, 4, 5) })
	mustPanic(t, "forward dep", "not older", func() { g.New(TransferMove, 0, VersionID(n)) })
	if g.Len() != n || len(g.pages) != pages {
		t.Fatalf("rejected versions changed the graph: %d versions in %d pages, was %d in %d", g.Len(), len(g.pages), n, pages)
	}
	mustPanic(t, "read of an unrecorded version", "not recorded", func() { g.NoteRead(VersionID(n), 1) })
	if id := g.New(TransferMove, 0, VersionID(n-1)); int(id) != n {
		t.Fatalf("next version id %d, want %d", id, n)
	}
	if id := g.New(TransferNone, 0); int(id) != n+1 || len(g.pages) != pages+1 {
		t.Fatalf("version %d in %d pages, want %d in %d", id, len(g.pages), n+1, pages+1)
	}
	mustPanic(t, "Live before Solve", "Solve not called", func() { g.Live(1) })
	mustPanic(t, "Solved before Solve", "before Solve", func() { g.Solved() })
	g.Solve()
	mustPanic(t, "New after Solve", "already solved", func() { g.New(TransferNone, 0) })
	mustPanic(t, "NoteRead after Solve", "already solved", func() { g.NoteRead(1, 5) })
	mustPanic(t, "MarkRootLive after Solve", "already solved", func() { g.MarkRootLive(1, 1) })
}

// TestRestoredGraphLen checks that a graph revived from its solved
// state reports the original's length and statistics.
func TestRestoredGraphLen(t *testing.T) {
	g, _ := randomGraphs(t, 3, pageVersions+5)
	g.Solve()
	back, err := Restore(g.Solved())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != g.Len() || back.Stats() != g.Stats() {
		t.Errorf("restored graph: Len %d Stats %+v, want %d %+v", back.Len(), back.Stats(), g.Len(), g.Stats())
	}
}
