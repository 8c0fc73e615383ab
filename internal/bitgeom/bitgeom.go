// Package bitgeom models the physical layout of an SRAM array and the
// geometry of spatial multi-bit fault modes.
//
// Following the paper's terminology (Section IV-A), a fault mode is a
// specific multi-bit flip pattern (e.g. a 3x1 fault: three consecutive bits
// along one wordline) and a fault group is a concrete set of bits in a
// structure matching that pattern. A 2x1 mode on a 4x1 array has three
// fault groups (Figure 1); groups do not wrap around array edges.
package bitgeom

import (
	"fmt"
	"strconv"
)

// Geometry describes a physical SRAM array as Rows wordlines by Cols bit
// columns. Bit (0,0) is the top-left bit; bits along a row are physically
// adjacent, which is the adjacency that matters for the dominant Mx1
// spatial multi-bit fault modes.
type Geometry struct {
	Rows, Cols int
}

// Bits returns the total number of bits in the array.
func (g Geometry) Bits() int { return g.Rows * g.Cols }

// BitPos identifies a single physical bit position.
type BitPos struct {
	Row, Col int
}

// Index returns the linear index of p in row-major order.
func (g Geometry) Index(p BitPos) int { return p.Row*g.Cols + p.Col }

// Pos returns the position of linear index i.
func (g Geometry) Pos(i int) BitPos { return BitPos{Row: i / g.Cols, Col: i % g.Cols} }

// Contains reports whether p lies inside the array.
func (g Geometry) Contains(p BitPos) bool {
	return p.Row >= 0 && p.Row < g.Rows && p.Col >= 0 && p.Col < g.Cols
}

// Offset is a bit position relative to a fault group's anchor bit.
type Offset struct {
	DRow, DCol int
}

// FaultMode is a specific spatial multi-bit fault geometry: the set of bit
// offsets, relative to an anchor, that flip together when a fault of this
// mode strikes. Offsets are normalized so the minimum row and column
// offsets are zero.
type FaultMode struct {
	name    string
	offsets []Offset
	height  int // max DRow + 1
	width   int // max DCol + 1
}

// Mx1 returns the contiguous m-bits-along-a-wordline fault mode ("mx1"),
// the dominant spatial fault geometry observed in SRAM testing. m must be
// at least 1; Mx1(1) is the single-bit "fault mode".
func Mx1(m int) FaultMode {
	if m < 1 {
		panic("bitgeom: Mx1 requires m >= 1")
	}
	offs := make([]Offset, m)
	for i := range offs {
		offs[i] = Offset{0, i}
	}
	return newMode(strconv.Itoa(m)+"x1", offs)
}

// Rect returns a solid h-rows by w-columns rectangular fault mode ("hxw"
// with h rows and w columns, named as in the paper: a 3x1 fault is 3 bits
// along one wordline, so Rect(1, 3) is named "3x1").
func Rect(h, w int) FaultMode {
	if h < 1 || w < 1 {
		panic("bitgeom: Rect requires h, w >= 1")
	}
	offs := make([]Offset, 0, h*w)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			offs = append(offs, Offset{r, c})
		}
	}
	return newMode(fmt.Sprintf("%dx%d", w, h), offs)
}

// Custom returns a fault mode with an arbitrary (possibly non-contiguous)
// offset pattern. Offsets are normalized; duplicates panic.
func Custom(name string, offs []Offset) FaultMode {
	return newMode(name, append([]Offset(nil), offs...))
}

func newMode(name string, offs []Offset) FaultMode {
	if len(offs) == 0 {
		panic("bitgeom: fault mode needs at least one offset")
	}
	minR, minC := offs[0].DRow, offs[0].DCol
	for _, o := range offs {
		minR = min(minR, o.DRow)
		minC = min(minC, o.DCol)
	}
	seen := make(map[Offset]bool, len(offs))
	maxR, maxC := 0, 0
	for i := range offs {
		offs[i].DRow -= minR
		offs[i].DCol -= minC
		if seen[offs[i]] {
			panic("bitgeom: duplicate offset in fault mode " + name)
		}
		seen[offs[i]] = true
		maxR = max(maxR, offs[i].DRow)
		maxC = max(maxC, offs[i].DCol)
	}
	return FaultMode{name: name, offsets: offs, height: maxR + 1, width: maxC + 1}
}

// Name returns the mode's display name (e.g. "3x1").
func (m FaultMode) Name() string { return m.name }

// Size returns the number of bits flipped by a fault of this mode.
func (m FaultMode) Size() int { return len(m.offsets) }

// Offsets returns the normalized offsets. The slice is owned by the mode
// and must not be modified.
func (m FaultMode) Offsets() []Offset { return m.offsets }

// Bounds returns the bounding-box height (rows) and width (columns) of the
// mode's pattern.
func (m FaultMode) Bounds() (h, w int) { return m.height, m.width }

// AnchorsPerRow returns the number of fault-group anchor positions per
// wordline for mode m (zero when the mode does not fit the geometry).
// For a mode h rows tall GroupCount = (Rows-h+1) * AnchorsPerRow, and
// the groups anchored in row r are exactly indices [r*AnchorsPerRow,
// (r+1)*AnchorsPerRow) — the contract the band-sharded packed solver
// relies on.
func (g Geometry) AnchorsPerRow(m FaultMode) int {
	ac := g.Cols - m.width + 1
	if ac <= 0 || g.Rows-m.height+1 <= 0 {
		return 0
	}
	return ac
}

// GroupCount returns the number of unique fault groups of mode m in the
// array: every anchor position whose full pattern fits in-bounds.
func (g Geometry) GroupCount(m FaultMode) int {
	ar := g.Rows - m.height + 1
	ac := g.Cols - m.width + 1
	if ar <= 0 || ac <= 0 {
		return 0
	}
	return ar * ac
}

// GroupAnchor returns the anchor position of fault group i (0-based, in
// row-major anchor order).
func (g Geometry) GroupAnchor(m FaultMode, i int) BitPos {
	ac := g.Cols - m.width + 1
	return BitPos{Row: i / ac, Col: i % ac}
}

// GroupBits appends the absolute bit positions of fault group i to buf and
// returns the extended slice. Bits are in the mode's offset order.
func (g Geometry) GroupBits(m FaultMode, i int, buf []BitPos) []BitPos {
	a := g.GroupAnchor(m, i)
	for _, o := range m.offsets {
		buf = append(buf, BitPos{Row: a.Row + o.DRow, Col: a.Col + o.DCol})
	}
	return buf
}

// ForEachGroup calls fn for every fault group of mode m, passing the group
// index and its bit positions. The bits slice is reused between calls and
// must not be retained.
func (g Geometry) ForEachGroup(m FaultMode, fn func(i int, bits []BitPos)) {
	n := g.GroupCount(m)
	buf := make([]BitPos, 0, m.Size())
	for i := 0; i < n; i++ {
		buf = g.GroupBits(m, i, buf[:0])
		fn(i, buf)
	}
}
