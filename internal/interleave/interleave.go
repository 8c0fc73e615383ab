// Package interleave describes how a hardware structure's logical data
// words are laid out across a physical SRAM bit array, and which protection
// domain each physical bit belongs to.
//
// Bit interleaving determines how a spatial multi-bit fault — a run of
// physically adjacent flipped bits — is split across protection domains,
// which in turn decides whether protection schemes see one large fault or
// several small ones. The paper studies:
//
//   - logical interleaving: each data word is split into I interleaved
//     check words, so adjacent bits of the same word are protected by
//     different codes (extra check-bit area, highest ACE locality);
//   - way-physical interleaving: bits from I different ways of the same
//     cache set are interleaved;
//   - index-physical interleaving: bits from lines at I adjacent set
//     indices are interleaved;
//   - intra-thread (rx) interleaving: different registers of the same GPU
//     thread are interleaved;
//   - inter-thread (tx) interleaving: the same register of I adjacent GPU
//     threads is interleaved.
package interleave

import (
	"fmt"
	"slices"

	"mbavf/internal/bitgeom"
)

// WordBit identifies one bit of one logical data word: Word is the word
// index in the structure (cache line, 32-bit register instance, ...) and
// Bit its bit offset within that word.
type WordBit struct {
	Word, Bit int
}

// Layout couples a physical bit-array geometry with the mapping from each
// physical bit to its logical word bit and its protection domain.
type Layout struct {
	name string
	// Geom is the physical array shape whose rows are wordlines.
	Geom bitgeom.Geometry
	// Words is the number of logical data words stored in the array.
	Words int
	// WordBits is the size of each logical data word in bits.
	WordBits int
	// Domains is the number of protection domains (one code word each).
	Domains int
	// DomainBits is the number of data bits protected by one domain.
	DomainBits int
	// Factor is the interleaving degree I (1 = no interleaving).
	Factor int
	mapFn  func(p bitgeom.BitPos) (WordBit, int)
	// row0 is row 0's remap table when every row is row 0 with its words
	// and domains shifted by one constant each and its bits unchanged,
	// as for every named constructor; nil for custom layouts. row0Words
	// lists row 0's distinct words.
	row0      *RowMap
	row0Words []int32
}

// Name returns the layout's display name, e.g. "way-physical-x2".
func (l *Layout) Name() string { return l.name }

// Map returns the logical word bit and protection domain of physical bit p.
func (l *Layout) Map(p bitgeom.BitPos) (WordBit, int) { return l.mapFn(p) }

// RowMap is the word-level remap table of one physical wordline: flat
// per-column arrays of the logical word, word-bit, and protection domain
// that Map returns for (row, col). The packed ACE solver resolves every
// column of a wordline once per row through this table — one sequential
// array walk — instead of calling Map once per fault-group bit per group.
type RowMap struct {
	Word, Bit, Dom []int32
}

// Row fills m with the remap table of physical row r, reusing m's
// backing arrays across calls. A named layout's row is row 0's table
// shifted by the row's offsets, one Map call per row; a custom layout
// maps every column.
func (l *Layout) Row(r int, m *RowMap) {
	cols := l.Geom.Cols
	if cap(m.Word) < cols {
		m.Word = make([]int32, cols)
		m.Bit = make([]int32, cols)
		m.Dom = make([]int32, cols)
	}
	m.Word, m.Bit, m.Dom = m.Word[:cols], m.Bit[:cols], m.Dom[:cols]
	if l.row0 != nil {
		dw, dd, _ := l.Shift(r)
		for c, w := range l.row0.Word {
			m.Word[c] = w + dw
		}
		for c, d := range l.row0.Dom {
			m.Dom[c] = d + dd
		}
		copy(m.Bit, l.row0.Bit)
		return
	}
	for c := 0; c < cols; c++ {
		wb, dom := l.mapFn(bitgeom.BitPos{Row: r, Col: c})
		m.Word[c], m.Bit[c], m.Dom[c] = int32(wb.Word), int32(wb.Bit), int32(dom)
	}
}

// Shift returns how far row r's words and domains sit from row 0's, and
// whether the layout is compiled: every row is row 0 shifted that way,
// its bits unchanged. Every named layout is; no custom one is.
func (l *Layout) Shift(r int) (word, dom int32, ok bool) {
	if l.row0 == nil {
		return 0, 0, false
	}
	wb, d := l.mapFn(bitgeom.BitPos{Row: r})
	return int32(wb.Word) - l.row0.Word[0], int32(d) - l.row0.Dom[0], true
}

// RowWords appends to dst the logical words that physical row r holds,
// each at least once, and returns the extended slice. A named layout
// shifts row 0's distinct words without mapping the row.
func (l *Layout) RowWords(r int, dst []int32) []int32 {
	if l.row0 != nil {
		dw, _, _ := l.Shift(r)
		for _, w := range l.row0Words {
			dst = append(dst, w+dw)
		}
		return dst
	}
	for c := 0; c < l.Geom.Cols; c++ {
		wb, _ := l.mapFn(bitgeom.BitPos{Row: r, Col: c})
		if n := len(dst); n == 0 || dst[n-1] != int32(wb.Word) {
			dst = append(dst, int32(wb.Word))
		}
	}
	return dst
}

// compiled builds l's row-0 table, which Row and RowWords then shift
// for every row. Only layouts whose rows are all shifts of row 0 may be
// compiled; TestRowMatchesMap checks every named constructor. A layout
// with no rows has no row 0 (and its map may divide by zero).
func compiled(l *Layout) *Layout {
	if l.Geom.Rows == 0 {
		return l
	}
	var m RowMap
	l.Row(0, &m)
	for _, w := range m.Word {
		if !slices.Contains(l.row0Words, w) {
			l.row0Words = append(l.row0Words, w)
		}
	}
	l.row0 = &m
	return l
}

// NewCustom returns a layout with an arbitrary bit mapping. It exists
// for structures whose physical scramble none of the named constructors
// describe (and for solver equivalence tests that need geometries
// straddling 64-bit word boundaries). wordBits is the logical word width
// backing the geometry's rows; mapFn must be a bijection from geometry
// bits onto (word, bit) pairs with word < words and bit < wordBits.
func NewCustom(name string, geom bitgeom.Geometry, words, wordBits, domains, factor int, mapFn func(bitgeom.BitPos) (WordBit, int)) (*Layout, error) {
	if words < 1 || wordBits < 1 || domains < 1 || factor < 1 {
		return nil, fmt.Errorf("interleave: custom layout %q needs positive words/wordBits/domains/factor", name)
	}
	if mapFn == nil {
		return nil, fmt.Errorf("interleave: custom layout %q needs a map function", name)
	}
	return &Layout{
		name:       name,
		Geom:       geom,
		Words:      words,
		WordBits:   wordBits,
		Domains:    domains,
		DomainBits: (words * wordBits) / domains,
		Factor:     factor,
		mapFn:      mapFn,
	}, nil
}

func validate(kind string, groups, factor int) error {
	if factor < 1 {
		return fmt.Errorf("interleave: %s factor %d must be >= 1", kind, factor)
	}
	if groups%factor != 0 {
		return fmt.Errorf("interleave: %s factor %d must divide %d", kind, factor, groups)
	}
	return nil
}

// Logical returns a layout in which each physical row holds one data word
// and the word is split into factor interleaved check words: physical
// column c of word w is logical bit c, protected by domain w*factor +
// c%factor. With factor 1 this is the un-interleaved baseline layout.
func Logical(words, wordBits, factor int) (*Layout, error) {
	if err := validate("logical", wordBits, factor); err != nil {
		return nil, err
	}
	name := "logical"
	if factor > 1 {
		name = fmt.Sprintf("logical-x%d", factor)
	}
	return compiled(&Layout{
		name:       name,
		Geom:       bitgeom.Geometry{Rows: words, Cols: wordBits},
		Words:      words,
		WordBits:   wordBits,
		Domains:    words * factor,
		DomainBits: wordBits / factor,
		Factor:     factor,
		mapFn: func(p bitgeom.BitPos) (WordBit, int) {
			return WordBit{Word: p.Row, Bit: p.Col}, p.Row*factor + p.Col%factor
		},
	}), nil
}

// WayPhysical returns a cache-data-array layout interleaving lines from
// factor different ways of the same set. Lines are indexed set*ways + way.
// Each physical row holds factor complete lines: the row for (set, way
// group g) places bit b of way g*factor+k at column b*factor+k. Each line
// is one protection domain.
func WayPhysical(sets, ways, lineBits, factor int) (*Layout, error) {
	if err := validate("way-physical", ways, factor); err != nil {
		return nil, err
	}
	words := sets * ways
	return compiled(&Layout{
		name:       fmt.Sprintf("way-physical-x%d", factor),
		Geom:       bitgeom.Geometry{Rows: words / factor, Cols: lineBits * factor},
		Words:      words,
		WordBits:   lineBits,
		Domains:    words,
		DomainBits: lineBits,
		Factor:     factor,
		mapFn: func(p bitgeom.BitPos) (WordBit, int) {
			groupsPerSet := ways / factor
			set := p.Row / groupsPerSet
			group := p.Row % groupsPerSet
			way := group*factor + p.Col%factor
			word := set*ways + way
			return WordBit{Word: word, Bit: p.Col / factor}, word
		},
	}), nil
}

// IndexPhysical returns a cache-data-array layout interleaving lines from
// factor adjacent set indices (same way). The row for (set group g, way)
// places bit b of set g*factor+k at column b*factor+k. Each line is one
// protection domain.
func IndexPhysical(sets, ways, lineBits, factor int) (*Layout, error) {
	if err := validate("index-physical", sets, factor); err != nil {
		return nil, err
	}
	words := sets * ways
	return compiled(&Layout{
		name:       fmt.Sprintf("index-physical-x%d", factor),
		Geom:       bitgeom.Geometry{Rows: words / factor, Cols: lineBits * factor},
		Words:      words,
		WordBits:   lineBits,
		Domains:    words,
		DomainBits: lineBits,
		Factor:     factor,
		mapFn: func(p bitgeom.BitPos) (WordBit, int) {
			groupsPerWay := sets / factor
			way := p.Row / groupsPerWay
			group := p.Row % groupsPerWay
			set := group*factor + p.Col%factor
			word := set*ways + way
			return WordBit{Word: word, Bit: p.Col / factor}, word
		},
	}), nil
}

// IntraThread returns a register-file layout ("rx" interleaving in the
// paper's case study) interleaving factor different registers of the same
// thread. Register instances are indexed thread*regs + reg and each is one
// protection domain. The row for (thread, reg group g) places bit b of
// register g*factor+k at column b*factor+k.
func IntraThread(threads, regs, regBits, factor int) (*Layout, error) {
	if err := validate("intra-thread", regs, factor); err != nil {
		return nil, err
	}
	words := threads * regs
	return compiled(&Layout{
		name:       fmt.Sprintf("intra-thread-x%d", factor),
		Geom:       bitgeom.Geometry{Rows: words / factor, Cols: regBits * factor},
		Words:      words,
		WordBits:   regBits,
		Domains:    words,
		DomainBits: regBits,
		Factor:     factor,
		mapFn: func(p bitgeom.BitPos) (WordBit, int) {
			groupsPerThread := regs / factor
			thread := p.Row / groupsPerThread
			group := p.Row % groupsPerThread
			reg := group*factor + p.Col%factor
			word := thread*regs + reg
			return WordBit{Word: word, Bit: p.Col / factor}, word
		},
	}), nil
}

// InterThread returns a register-file layout ("tx" interleaving in the
// paper's case study) interleaving the same register of factor adjacent
// threads. The row for (thread group g, reg) places bit b of thread
// g*factor+k at column b*factor+k. Register instances are indexed
// thread*regs + reg and each is one protection domain.
func InterThread(threads, regs, regBits, factor int) (*Layout, error) {
	if err := validate("inter-thread", threads, factor); err != nil {
		return nil, err
	}
	words := threads * regs
	return compiled(&Layout{
		name:       fmt.Sprintf("inter-thread-x%d", factor),
		Geom:       bitgeom.Geometry{Rows: words / factor, Cols: regBits * factor},
		Words:      words,
		WordBits:   regBits,
		Domains:    words,
		DomainBits: regBits,
		Factor:     factor,
		mapFn: func(p bitgeom.BitPos) (WordBit, int) {
			groupsPerReg := threads / factor
			reg := p.Row / groupsPerReg
			group := p.Row % groupsPerReg
			thread := group*factor + p.Col%factor
			word := thread*regs + reg
			return WordBit{Word: word, Bit: p.Col / factor}, word
		},
	}), nil
}
