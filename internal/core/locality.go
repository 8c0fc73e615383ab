package core

import (
	"fmt"

	"mbavf/internal/bitgeom"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
)

// Locality quantifies the paper's ACE-locality property for one fault
// mode over one layout: the tendency of physically adjacent bits to be
// ACE at the same time.
type Locality struct {
	ModeName string
	Groups   int
	// AnyACE is the total group-cycles during which at least one bit of
	// the group is ACE (the MB-AVF numerator for an always-detecting
	// scheme); AllACE counts cycles during which every bit is ACE.
	AnyACE interval.Cycle
	AllACE interval.Cycle
}

// Coefficient returns P(all bits ACE | any bit ACE) in [0, 1]. A
// structure with coefficient 1 has perfectly correlated adjacent-bit
// ACEness, so its MB-AVF equals its SB-AVF (the 1x floor); a coefficient
// near 0 means adjacent ACE times are disjoint and MB-AVF approaches M
// times SB-AVF.
func (l Locality) Coefficient() float64 {
	if l.AnyACE == 0 {
		return 0
	}
	return float64(l.AllACE) / float64(l.AnyACE)
}

// ACELocality measures the ACE locality of fault mode under the
// analyzer's layout, using microarchitectural ACEness (scheme-independent).
// Higher locality predicts lower MB-AVF for the same SB-AVF, which is the
// design lever behind logical interleaving (Section VI-B).
func (a *Analyzer) ACELocality(mode bitgeom.FaultMode) (Locality, error) {
	if err := a.Validate(); err != nil {
		return Locality{}, err
	}
	geom := a.Layout.Geom
	groups := geom.GroupCount(mode)
	if groups == 0 {
		return Locality{}, fmt.Errorf("core: fault mode %s does not fit geometry %dx%d",
			mode.Name(), geom.Rows, geom.Cols)
	}
	loc := Locality{ModeName: mode.Name(), Groups: groups}
	msize := mode.Size()
	cursors := make([]byteCursor, msize)
	states := make([]lifetime.State, msize)
	bitBuf := make([]bitgeom.BitPos, 0, msize)
	for gi := 0; gi < groups; gi++ {
		bitBuf = geom.GroupBits(mode, gi, bitBuf[:0])
		for i, pos := range bitBuf {
			wb, _ := a.Layout.Map(pos)
			byteIdx := wb.Bit / 8
			cursors[i] = byteCursor{
				segs:     a.Tracker.Segments(wb.Word, byteIdx),
				byteIdx:  byteIdx,
				analyzer: a,
				cached:   -1,
			}
		}
		t := interval.Cycle(0)
		for t < a.TotalCycles {
			next := a.TotalCycles
			for i := range cursors {
				st, n := cursors[i].stateAt(t)
				states[i] = st
				if n < next {
					next = n
				}
			}
			if next <= t {
				break
			}
			any, all := false, true
			for i := range states {
				any = any || states[i].Uarch
				all = all && states[i].Uarch
			}
			span := next - t
			if any {
				loc.AnyACE += span
			}
			if all {
				loc.AllACE += span
			}
			t = next
		}
	}
	return loc, nil
}
