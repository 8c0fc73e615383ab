package core

// The solver oracle: the per-group scalar sweep. It walks one merged
// per-bit timeline per fault group, classifying each span region by
// region, the way the paper states the model. It shares no
// classification code with the packed band sweep (packed.go), which must
// match it == on every query; the equivalence suites call it through
// oracleSolve.

import (
	"fmt"

	"mbavf/internal/bitgeom"
	"mbavf/internal/ecc"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
)

// Class is the outcome class of a fault group at an instant.
type Class uint8

const (
	// ClassUnACE: the fault has no effect (masked or corrected).
	ClassUnACE Class = iota
	// ClassFalseDUE: the fault is detected but would not have corrupted
	// program output if ignored.
	ClassFalseDUE
	// ClassTrueDUE: the fault is detected and would have corrupted
	// program output.
	ClassTrueDUE
	// ClassSDC: the fault defeats the protection and corrupts output.
	ClassSDC
)

// classCounts returns the counts of one group in class cls, also in the
// DUE union when dueUnion is set.
func classCounts(cls Class, dueUnion bool) Counters {
	var n Counters
	if dueUnion {
		n.DUE = 1
	}
	switch cls {
	case ClassTrueDUE:
		n.TrueDUE = 1
	case ClassFalseDUE:
		n.FalseDUE = 1
	case ClassSDC:
		n.SDC = 1
	}
	return n
}

// bitState is the resolved (uarch, live) classification of one bit over
// one time span.
type bitState struct {
	uarch, live bool
}

// segState classifies one lifetime segment of one bit: the per-bit
// projection of lifetime.Seg.Resolve (uarch ACEness is byte-uniform,
// liveness per bit), used by the brute-force reference.
func (a *Analyzer) segState(seg lifetime.Seg, byteIdx, bit int) bitState {
	st := seg.Resolve(a.Graph, a.WordVersions, byteIdx)
	return bitState{uarch: st.Uarch, live: st.Live&(1<<bit) != 0}
}

// groupBit locates one group member bit: an index into the group's
// deduplicated byte-cursor array plus a bit mask within that byte.
type groupBit struct {
	cur  int
	mask uint8
}

// region is one overlapped region: the bits a fault group shares with one
// protection domain.
type region struct {
	reaction ecc.Reaction
	bits     []groupBit
	nbits    int
}

type byteKey struct{ word, byteIdx int }

// oracleSolve is AnalyzeWindowed on the oracle: the same validation,
// SB-AVF accumulation and sharding, with every fault group swept alone.
func (a *Analyzer) oracleSolve(scheme ecc.Scheme, mode bitgeom.FaultMode, window interval.Cycle) (*Series, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	geom := a.Layout.Geom
	groups := geom.GroupCount(mode)
	if groups == 0 {
		return nil, fmt.Errorf("core: fault mode %s does not fit geometry %dx%d", mode.Name(), geom.Rows, geom.Cols)
	}
	bitSums := a.newSeries(window)
	a.accumulateBits(bitSums, window)
	s := bitSums.forQuery(Query{Scheme: scheme, Mode: mode}, groups)
	a.sharded([]*Series{s}, groups, func(dst []*Series, lo, hi int) {
		a.sweepGroups(scheme, mode, dst[0], window, lo, hi)
	})
	return s, nil
}

// sweepGroups classifies fault groups [lo, hi) over time, accumulating
// into s. Group bits sharing a byte slot share one memoized cursor.
func (a *Analyzer) sweepGroups(scheme ecc.Scheme, mode bitgeom.FaultMode, s *Series, window interval.Cycle, lo, hi int) {
	geom := a.Layout.Geom
	msize := mode.Size()
	cursors := make([]byteCursor, 0, msize)
	regions := make([]region, 0, msize)
	domOf := make(map[int]int, msize)     // domain -> region index
	curOf := make(map[byteKey]int, msize) // byte slot -> cursor index
	bitBuf := make([]bitgeom.BitPos, 0, msize)

	for gi := lo; gi < hi; gi++ {
		bitBuf = geom.GroupBits(mode, gi, bitBuf[:0])
		regions = regions[:0]
		cursors = cursors[:0]
		clear(domOf)
		clear(curOf)
		for _, pos := range bitBuf {
			wb, dom := a.Layout.Map(pos)
			byteIdx := wb.Bit / 8
			key := byteKey{wb.Word, byteIdx}
			ci, ok := curOf[key]
			if !ok {
				ci = len(cursors)
				cursors = append(cursors, byteCursor{
					segs:     a.Tracker.Segments(wb.Word, byteIdx),
					byteIdx:  byteIdx,
					analyzer: a,
					cached:   -1,
				})
				curOf[key] = ci
			}
			ri, ok := domOf[dom]
			if !ok {
				ri = len(regions)
				regions = append(regions, region{})
				domOf[dom] = ri
			}
			regions[ri].bits = append(regions[ri].bits, groupBit{cur: ci, mask: 1 << (wb.Bit % 8)})
			regions[ri].nbits++
		}
		for ri := range regions {
			regions[ri].reaction = scheme.React(regions[ri].nbits)
		}
		a.sweepOneGroup(cursors, regions, s, window)
	}
}

// sweepOneGroup walks one group's merged timeline, classifying each
// span.
func (a *Analyzer) sweepOneGroup(cursors []byteCursor, regions []region, s *Series, window interval.Cycle) {
	states := make([]lifetime.State, len(cursors))
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
			break // defensive: no progress possible
		}
		var anyDetACE, anyTrueDUE, anySDC bool
		for _, r := range regions {
			if r.reaction == ecc.ReactCorrected || r.reaction == ecc.ReactNone {
				continue
			}
			var uarch, live bool
			for _, gb := range r.bits {
				st := states[gb.cur]
				uarch = uarch || st.Uarch
				live = live || st.Live&gb.mask != 0
			}
			switch r.reaction {
			case ecc.ReactDetected:
				if uarch {
					anyDetACE = true
					if live {
						anyTrueDUE = true
					}
				}
			case ecc.ReactUndetected:
				if live {
					anySDC = true
				}
			}
		}
		cls := ClassUnACE
		if a.DetectionPreemptsSDC && anyDetACE {
			if anyTrueDUE || anySDC {
				cls = ClassTrueDUE
			} else {
				cls = ClassFalseDUE
			}
		} else {
			switch {
			case anySDC:
				cls = ClassSDC
			case anyTrueDUE:
				cls = ClassTrueDUE
			case anyDetACE:
				cls = ClassFalseDUE
			}
		}
		if cls != ClassUnACE || anyDetACE {
			addCounters(s, window, classCounts(cls, anyDetACE), t, next)
		}
		t = next
	}
}
