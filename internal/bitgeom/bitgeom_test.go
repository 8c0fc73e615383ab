package bitgeom

import (
	"testing"
	"testing/quick"
)

func TestGeometryIndexRoundTrip(t *testing.T) {
	g := Geometry{Rows: 7, Cols: 13}
	for i := 0; i < g.Bits(); i++ {
		p := g.Pos(i)
		if !g.Contains(p) {
			t.Fatalf("Pos(%d) = %v outside geometry", i, p)
		}
		if got := g.Index(p); got != i {
			t.Fatalf("Index(Pos(%d)) = %d", i, got)
		}
	}
	if g.Contains(BitPos{7, 0}) || g.Contains(BitPos{0, 13}) || g.Contains(BitPos{-1, 0}) {
		t.Error("Contains accepted out-of-bounds position")
	}
}

func TestMx1Paper4x1Example(t *testing.T) {
	// Figure 1: a 2x1 fault mode has 3 unique fault groups in a 4x1 array.
	g := Geometry{Rows: 1, Cols: 4}
	m := Mx1(2)
	if got := g.GroupCount(m); got != 3 {
		t.Fatalf("GroupCount(2x1 on 4x1) = %d, want 3", got)
	}
	want := [][]BitPos{
		{{0, 0}, {0, 1}},
		{{0, 1}, {0, 2}},
		{{0, 2}, {0, 3}},
	}
	g.ForEachGroup(m, func(i int, bits []BitPos) {
		for j, b := range bits {
			if b != want[i][j] {
				t.Errorf("group %d bit %d = %v, want %v", i, j, b, want[i][j])
			}
		}
	})
}

func TestMx1Names(t *testing.T) {
	for m := 1; m <= 8; m++ {
		fm := Mx1(m)
		if fm.Size() != m {
			t.Errorf("Mx1(%d).Size() = %d", m, fm.Size())
		}
		h, w := fm.Bounds()
		if h != 1 || w != m {
			t.Errorf("Mx1(%d).Bounds() = %d,%d", m, h, w)
		}
	}
	if Mx1(3).Name() != "3x1" {
		t.Errorf("Mx1(3).Name() = %q", Mx1(3).Name())
	}
}

func TestRect(t *testing.T) {
	m := Rect(2, 3)
	if m.Size() != 6 {
		t.Fatalf("Rect(2,3).Size() = %d, want 6", m.Size())
	}
	h, w := m.Bounds()
	if h != 2 || w != 3 {
		t.Errorf("Bounds = %d,%d, want 2,3", h, w)
	}
	g := Geometry{Rows: 4, Cols: 5}
	// anchors: (4-2+1) x (5-3+1) = 3x3 = 9
	if got := g.GroupCount(m); got != 9 {
		t.Errorf("GroupCount = %d, want 9", got)
	}
}

func TestCustomNormalization(t *testing.T) {
	m := Custom("L", []Offset{{2, 5}, {3, 5}, {3, 6}})
	offs := m.Offsets()
	if offs[0] != (Offset{0, 0}) || offs[1] != (Offset{1, 0}) || offs[2] != (Offset{1, 1}) {
		t.Errorf("normalization wrong: %v", offs)
	}
}

func TestCustomDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate offset")
		}
	}()
	Custom("dup", []Offset{{0, 0}, {1, 1}, {0, 0}})
}

func TestModeTooBigForArray(t *testing.T) {
	g := Geometry{Rows: 1, Cols: 4}
	if got := g.GroupCount(Mx1(5)); got != 0 {
		t.Errorf("GroupCount(5x1 on 1x4) = %d, want 0", got)
	}
	if got := g.GroupCount(Rect(2, 2)); got != 0 {
		t.Errorf("GroupCount(2x2 on 1x4) = %d, want 0", got)
	}
}

func TestGroupBitsInBounds(t *testing.T) {
	g := Geometry{Rows: 8, Cols: 64}
	for _, m := range []FaultMode{Mx1(2), Mx1(4), Mx1(8), Rect(2, 2), Custom("diag", []Offset{{0, 0}, {1, 1}})} {
		n := g.GroupCount(m)
		g.ForEachGroup(m, func(i int, bits []BitPos) {
			if len(bits) != m.Size() {
				t.Fatalf("%s group %d has %d bits, want %d", m.Name(), i, len(bits), m.Size())
			}
			for _, b := range bits {
				if !g.Contains(b) {
					t.Fatalf("%s group %d contains out-of-bounds bit %v", m.Name(), i, b)
				}
			}
		})
		if n != g.GroupCount(m) {
			t.Fatalf("GroupCount changed")
		}
	}
}

func TestQuickGroupCountFormula(t *testing.T) {
	f := func(rows, cols, m uint8) bool {
		g := Geometry{Rows: int(rows%16) + 1, Cols: int(cols%128) + 1}
		mode := Mx1(int(m%8) + 1)
		want := 0
		if g.Cols >= mode.Size() {
			want = g.Rows * (g.Cols - mode.Size() + 1)
		}
		return g.GroupCount(mode) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEveryBitCoveredByGroups(t *testing.T) {
	// Every bit of the array must appear in at least one Mx1 group when the
	// mode fits, and anchor enumeration must be exhaustive and unique.
	f := func(cols, msz uint8) bool {
		g := Geometry{Rows: 2, Cols: int(cols%32) + 8}
		m := Mx1(int(msz%4) + 1)
		covered := make([]int, g.Bits())
		seen := make(map[[2]int]bool)
		g.ForEachGroup(m, func(i int, bits []BitPos) {
			a := g.GroupAnchor(m, i)
			key := [2]int{a.Row, a.Col}
			if seen[key] {
				t.Fatalf("duplicate anchor %v", a)
			}
			seen[key] = true
			for _, b := range bits {
				covered[g.Index(b)]++
			}
		})
		for _, c := range covered {
			if c == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAnchorsPerRow(t *testing.T) {
	g := Geometry{Rows: 4, Cols: 16}
	cases := []struct {
		mode FaultMode
		want int
	}{
		{Mx1(1), 16},
		{Mx1(4), 13},
		{Mx1(16), 1},
		{Mx1(17), 0},
		{Rect(2, 2), 15},
		{Rect(5, 1), 0},
	}
	for _, c := range cases {
		if got := g.AnchorsPerRow(c.mode); got != c.want {
			t.Errorf("%s: AnchorsPerRow = %d, want %d", c.mode.Name(), got, c.want)
		}
	}
	// The contract the packed solver's band sharding relies on: for a
	// mode h rows tall, the groups anchored in row r are [r*ac, (r+1)*ac)
	// for each of the Rows-h+1 anchor rows.
	for _, mode := range []FaultMode{Mx1(3), Rect(2, 2)} {
		ac := g.AnchorsPerRow(mode)
		h, _ := mode.Bounds()
		if g.GroupCount(mode) != (g.Rows-h+1)*ac {
			t.Fatalf("%s: GroupCount %d != (Rows-h+1)*AnchorsPerRow %d", mode.Name(), g.GroupCount(mode), (g.Rows-h+1)*ac)
		}
		for i := 0; i < g.GroupCount(mode); i++ {
			a := g.GroupAnchor(mode, i)
			if a.Row != i/ac || a.Col != i%ac {
				t.Fatalf("%s: group %d anchored at %+v, want row %d col %d", mode.Name(), i, a, i/ac, i%ac)
			}
		}
	}
}
