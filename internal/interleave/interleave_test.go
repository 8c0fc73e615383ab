package interleave

import (
	"maps"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/sim"
)

// checkBijection verifies that the layout maps physical bits one-to-one
// onto (word, bit) pairs, that every domain is non-empty and equally
// sized, and that any Factor consecutive bits in a row hit Factor distinct
// domains.
func checkBijection(t *testing.T, l *Layout) {
	t.Helper()
	if l.Geom.Bits() != l.Words*l.WordBits {
		t.Fatalf("%s: geometry %dx%d holds %d bits, want %d words x %d bits",
			l.Name(), l.Geom.Rows, l.Geom.Cols, l.Geom.Bits(), l.Words, l.WordBits)
	}
	seen := make(map[WordBit]bool, l.Geom.Bits())
	domainSize := make(map[int]int)
	for r := 0; r < l.Geom.Rows; r++ {
		var prevDomains []int
		for c := 0; c < l.Geom.Cols; c++ {
			wb, dom := l.Map(bitgeom.BitPos{Row: r, Col: c})
			if wb.Word < 0 || wb.Word >= l.Words || wb.Bit < 0 || wb.Bit >= l.WordBits {
				t.Fatalf("%s: bit (%d,%d) maps out of range: %+v", l.Name(), r, c, wb)
			}
			if dom < 0 || dom >= l.Domains {
				t.Fatalf("%s: bit (%d,%d) domain %d out of range", l.Name(), r, c, dom)
			}
			if seen[wb] {
				t.Fatalf("%s: logical bit %+v mapped twice", l.Name(), wb)
			}
			seen[wb] = true
			domainSize[dom]++
			prevDomains = append(prevDomains, dom)
			if len(prevDomains) >= l.Factor {
				window := prevDomains[len(prevDomains)-l.Factor:]
				uniq := make(map[int]bool, l.Factor)
				for _, d := range window {
					uniq[d] = true
				}
				if len(uniq) != l.Factor {
					t.Fatalf("%s: row %d cols ending %d: %d consecutive bits map to %d domains, want %d",
						l.Name(), r, c, l.Factor, len(uniq), l.Factor)
				}
			}
		}
	}
	if len(domainSize) != l.Domains {
		t.Fatalf("%s: %d domains populated, want %d", l.Name(), len(domainSize), l.Domains)
	}
	for dom, sz := range domainSize {
		if sz != l.DomainBits {
			t.Fatalf("%s: domain %d has %d bits, want %d", l.Name(), dom, sz, l.DomainBits)
		}
	}
}

func TestLogicalLayouts(t *testing.T) {
	for _, factor := range []int{1, 2, 4} {
		l, err := Logical(8, 64, factor)
		if err != nil {
			t.Fatal(err)
		}
		checkBijection(t, l)
		if factor > 1 && l.Domains != 8*factor {
			t.Errorf("logical x%d domains = %d, want %d", factor, l.Domains, 8*factor)
		}
	}
}

func TestLogicalSameWordDifferentDomains(t *testing.T) {
	l, err := Logical(4, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	wb0, d0 := l.Map(bitgeom.BitPos{Row: 1, Col: 0})
	wb1, d1 := l.Map(bitgeom.BitPos{Row: 1, Col: 1})
	if wb0.Word != wb1.Word {
		t.Fatalf("adjacent bits should stay in the same logical word: %v %v", wb0, wb1)
	}
	if d0 == d1 {
		t.Fatal("adjacent bits of a logically interleaved word must be in different domains")
	}
}

func TestWayPhysicalAdjacencyCrossesWays(t *testing.T) {
	const sets, ways, lineBits = 4, 4, 64
	l, err := WayPhysical(sets, ways, lineBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, l)
	// Adjacent physical bits belong to different lines in the same set.
	wb0, _ := l.Map(bitgeom.BitPos{Row: 0, Col: 0})
	wb1, _ := l.Map(bitgeom.BitPos{Row: 0, Col: 1})
	set0, way0 := wb0.Word/ways, wb0.Word%ways
	set1, way1 := wb1.Word/ways, wb1.Word%ways
	if set0 != set1 {
		t.Errorf("way-physical adjacent bits changed set: %d vs %d", set0, set1)
	}
	if way0 == way1 {
		t.Error("way-physical adjacent bits stayed in the same way")
	}
}

func TestIndexPhysicalAdjacencyCrossesSets(t *testing.T) {
	const sets, ways, lineBits = 8, 2, 64
	l, err := IndexPhysical(sets, ways, lineBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, l)
	wb0, _ := l.Map(bitgeom.BitPos{Row: 0, Col: 0})
	wb1, _ := l.Map(bitgeom.BitPos{Row: 0, Col: 1})
	set0, way0 := wb0.Word/ways, wb0.Word%ways
	set1, way1 := wb1.Word/ways, wb1.Word%ways
	if way0 != way1 {
		t.Errorf("index-physical adjacent bits changed way: %d vs %d", way0, way1)
	}
	if set0 == set1 {
		t.Error("index-physical adjacent bits stayed in the same set")
	}
	if set1 != set0+1 {
		t.Errorf("index-physical should interleave adjacent indices, got sets %d,%d", set0, set1)
	}
}

func TestIntraThreadAdjacency(t *testing.T) {
	const threads, regs, regBits = 4, 8, 32
	l, err := IntraThread(threads, regs, regBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, l)
	wb0, _ := l.Map(bitgeom.BitPos{Row: 0, Col: 0})
	wb1, _ := l.Map(bitgeom.BitPos{Row: 0, Col: 1})
	t0, r0 := wb0.Word/regs, wb0.Word%regs
	t1, r1 := wb1.Word/regs, wb1.Word%regs
	if t0 != t1 {
		t.Error("intra-thread adjacent bits changed thread")
	}
	if r0 == r1 {
		t.Error("intra-thread adjacent bits stayed in the same register")
	}
}

func TestInterThreadAdjacency(t *testing.T) {
	const threads, regs, regBits = 16, 4, 32
	for _, factor := range []int{2, 4} {
		l, err := InterThread(threads, regs, regBits, factor)
		if err != nil {
			t.Fatal(err)
		}
		checkBijection(t, l)
		wb0, _ := l.Map(bitgeom.BitPos{Row: 0, Col: 0})
		wb1, _ := l.Map(bitgeom.BitPos{Row: 0, Col: 1})
		t0, r0 := wb0.Word/regs, wb0.Word%regs
		t1, r1 := wb1.Word/regs, wb1.Word%regs
		if r0 != r1 {
			t.Error("inter-thread adjacent bits changed register index")
		}
		if t0 == t1 {
			t.Error("inter-thread adjacent bits stayed in the same thread")
		}
		if t1 != t0+1 {
			t.Errorf("inter-thread x%d should interleave adjacent threads, got %d,%d", factor, t0, t1)
		}
	}
}

func TestInvalidFactors(t *testing.T) {
	if _, err := Logical(4, 32, 3); err == nil {
		t.Error("logical x3 over 32 bits should fail")
	}
	if _, err := Logical(4, 32, 0); err == nil {
		t.Error("factor 0 should fail")
	}
	if _, err := WayPhysical(4, 4, 64, 8); err == nil {
		t.Error("way factor 8 with 4 ways should fail")
	}
	if _, err := IndexPhysical(4, 2, 64, 8); err == nil {
		t.Error("index factor 8 with 4 sets should fail")
	}
	if _, err := IntraThread(4, 4, 32, 8); err == nil {
		t.Error("intra-thread factor 8 with 4 regs should fail")
	}
	if _, err := InterThread(4, 4, 32, 8); err == nil {
		t.Error("inter-thread factor 8 with 4 threads should fail")
	}
}

func TestNames(t *testing.T) {
	l1, _ := Logical(2, 32, 1)
	if l1.Name() != "logical" {
		t.Errorf("name = %q", l1.Name())
	}
	l2, _ := Logical(2, 32, 2)
	if l2.Name() != "logical-x2" {
		t.Errorf("name = %q", l2.Name())
	}
	w, _ := WayPhysical(2, 2, 32, 2)
	if w.Name() != "way-physical-x2" {
		t.Errorf("name = %q", w.Name())
	}
}

func TestAllLayoutsBijective(t *testing.T) {
	mk := func(f func() (*Layout, error)) *Layout {
		t.Helper()
		l, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	layouts := []*Layout{
		mk(func() (*Layout, error) { return Logical(16, 64, 4) }),
		mk(func() (*Layout, error) { return WayPhysical(8, 4, 64, 4) }),
		mk(func() (*Layout, error) { return IndexPhysical(16, 2, 64, 4) }),
		mk(func() (*Layout, error) { return IntraThread(8, 8, 32, 4) }),
		mk(func() (*Layout, error) { return InterThread(16, 4, 32, 4) }),
	}
	for _, l := range layouts {
		checkBijection(t, l)
	}
}

// TestRowMatchesMap checks the packed solver's remap table against the
// point query it caches: Row(r) must agree with Map at every column of
// every row, and RowWords(r) must list exactly the words Map puts in row
// r, with buffers reused across rows. Every named family is compiled
// (each row is row 0 shifted), so it runs at factors 1, 2 and 4 over
// small shapes and over the simulated machine's L1, L2 and VGPR, whose
// index-physical and inter-thread rows shift by offsets that are not a
// multiple of the row index.
func TestRowMatchesMap(t *testing.T) {
	cfg := sim.DefaultConfig()
	l1, l2 := cfg.Caches.L1, cfg.Caches.L2
	lineBits := l1.LineBytes * 8
	type family struct {
		name string
		mk   func(factor int) (*Layout, error)
	}
	cacheFamilies := func(tag string, sets, ways int) []family {
		return []family{
			{tag + "/way-physical", func(f int) (*Layout, error) { return WayPhysical(sets, ways, lineBits, f) }},
			{tag + "/index-physical", func(f int) (*Layout, error) { return IndexPhysical(sets, ways, lineBits, f) }},
			{tag + "/logical", func(f int) (*Layout, error) { return Logical(sets*ways, lineBits, f) }},
		}
	}
	vgprFamilies := func(tag string, threads, regs int) []family {
		return []family{
			{tag + "/intra-thread", func(f int) (*Layout, error) { return IntraThread(threads, regs, 32, f) }},
			{tag + "/inter-thread", func(f int) (*Layout, error) { return InterThread(threads, regs, 32, f) }},
			{tag + "/logical", func(f int) (*Layout, error) { return Logical(threads*regs, 32, f) }},
		}
	}
	var families []family
	families = append(families, cacheFamilies("small", 8, 4)...)
	families = append(families, vgprFamilies("small", 8, 4)...)
	families = append(families, cacheFamilies("l1", l1.Sets(), l1.Ways)...)
	families = append(families, cacheFamilies("l2", l2.Sets(), l2.Ways)...)
	families = append(families, vgprFamilies("vgpr", cfg.GPU.VGPRThreads(), cfg.GPU.NumVRegs)...)

	var layouts []*Layout
	for _, fam := range families {
		for _, factor := range []int{1, 2, 4} {
			l, err := fam.mk(factor)
			if err != nil {
				t.Fatalf("%s x%d: %v", fam.name, factor, err)
			}
			if l.row0 == nil {
				t.Fatalf("%s x%d: named layout not compiled", fam.name, factor)
			}
			layouts = append(layouts, l)
		}
	}
	custom, err := NewCustom("custom-65", bitgeom.Geometry{Rows: 3, Cols: 65}, 3, 72, 3, 1,
		func(p bitgeom.BitPos) (WordBit, int) {
			return WordBit{Word: p.Row, Bit: p.Col}, p.Row
		})
	if err != nil {
		t.Fatal(err)
	}
	layouts = append(layouts, custom)

	var m RowMap
	var words []int32
	for _, l := range layouts {
		for r := 0; r < l.Geom.Rows; r++ {
			l.Row(r, &m)
			if len(m.Word) != l.Geom.Cols {
				t.Fatalf("%s row %d: table has %d cols, want %d", l.Name(), r, len(m.Word), l.Geom.Cols)
			}
			want := map[int32]bool{}
			for c := 0; c < l.Geom.Cols; c++ {
				wb, dom := l.Map(bitgeom.BitPos{Row: r, Col: c})
				if int(m.Word[c]) != wb.Word || int(m.Bit[c]) != wb.Bit || int(m.Dom[c]) != dom {
					t.Fatalf("%s (%d,%d): Row gives (%d,%d,%d), Map gives (%d,%d,%d)",
						l.Name(), r, c, m.Word[c], m.Bit[c], m.Dom[c], wb.Word, wb.Bit, dom)
				}
				want[int32(wb.Word)] = true
			}
			words = l.RowWords(r, words[:0])
			got := map[int32]bool{}
			for _, w := range words {
				got[w] = true
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%s row %d: RowWords gives %v, Map gives words %v", l.Name(), r, words, want)
			}
		}
	}
}

// TestEmptyGeometries builds every named layout over a structure with
// no words, as a damaged run artifact's geometry can declare: the layout
// must come back with no rows rather than panic.
func TestEmptyGeometries(t *testing.T) {
	for name, mk := range map[string]func() (*Layout, error){
		"way-physical":   func() (*Layout, error) { return WayPhysical(4, 0, 64, 2) },
		"index-physical": func() (*Layout, error) { return IndexPhysical(0, 4, 64, 2) },
		"intra-thread":   func() (*Layout, error) { return IntraThread(4, 0, 32, 2) },
		"inter-thread":   func() (*Layout, error) { return InterThread(0, 4, 32, 2) },
		"logical":        func() (*Layout, error) { return Logical(0, 32, 2) },
	} {
		l, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.Geom.Rows != 0 {
			t.Errorf("%s: %d rows, want 0", name, l.Geom.Rows)
		}
	}
}

func TestNewCustomValidation(t *testing.T) {
	geom := bitgeom.Geometry{Rows: 2, Cols: 8}
	fn := func(p bitgeom.BitPos) (WordBit, int) { return WordBit{Word: p.Row, Bit: p.Col}, 0 }
	if _, err := NewCustom("bad", geom, 0, 8, 1, 1, fn); err == nil {
		t.Error("zero words accepted")
	}
	if _, err := NewCustom("bad", geom, 2, 8, 1, 0, fn); err == nil {
		t.Error("zero factor accepted")
	}
	if _, err := NewCustom("bad", geom, 2, 8, 1, 1, nil); err == nil {
		t.Error("nil map function accepted")
	}
	l, err := NewCustom("ok", geom, 2, 8, 4, 2, fn)
	if err != nil {
		t.Fatal(err)
	}
	if l.DomainBits != 4 {
		t.Errorf("DomainBits = %d, want 4", l.DomainBits)
	}
}
