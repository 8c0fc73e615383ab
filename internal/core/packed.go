package core

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"mbavf/internal/bitgeom"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
	"mbavf/internal/obs"
)

// The word-packed ACE solver. The scalar sweep (sweepGroups) walks one
// merged per-bit timeline per fault group: for a C-column wordline and an
// Mx1 mode that re-walks every byte slot's timeline ~(8+M) times and pays
// per-group cursor and map setup ~C times per row. The packed solver
// instead processes each wordline once for a whole batch of (scheme,
// mode) queries:
//
//   - the row's byte-slot timelines are merged into a single breakpoint
//     stream (lifetime.Packer);
//   - two bitmaps of 64-bit occupancy words span the row's columns — bit
//     c of word w in `uarch` (resp. `live`) is the microarchitectural
//     (resp. program-level) ACEness of column 64*w+c at the current
//     breakpoint — updated incrementally as slots change state, and the
//     bits that changed at each breakpoint are kept per word;
//   - per query, every fault group anchored in the row is precomputed as
//     word masks over its 64-column window (detected-region union,
//     undetected-region union, and the per-region masks the true-DUE
//     refinement needs), so classifying a group is a handful of AND/OR
//     word operations;
//   - groups are re-classified only when a word under their window
//     changed, and each query keeps how many of the row's groups are in
//     each class: at every breakpoint it adds those counts times the
//     cycles since the previous one, and classification then moves
//     groups between classes.
//
// Remapping, slot filtering, packing and the occupancy replay depend only
// on (run, structure, layout, row), so they run once per row however many
// queries the batch holds; only the anchor tables and the classification
// are per query.
//
// Counters are integer sums of span-length * class contributions, the
// packed spans refine the scalar spans (both are piecewise-constant
// partitions of the same step functions), and summing per span over
// groups regroups the scalar sweep's per-group sums, so results are
// bit-identical (==) to the scalar solver — solver_equiv_test.go pins this across every
// scheme x fault-mode combination and across batches.

var (
	// obsPackedRows counts wordlines swept by the packed solver: once per
	// row per batch, however many queries share the sweep.
	obsPackedRows = obs.NewCounter("core.packed_rows")
	// obsRowsSkipped counts (query, row) pairs the packed solver skipped
	// because every region of every fault group in the row is corrected.
	obsRowsSkipped = obs.NewCounter("core.rows_skipped")
)

// scalarSolve is the process-wide escape hatch behind the -scalar-solve
// flag: when set, every analysis takes the scalar per-bit path even for
// packable fault modes.
var scalarSolve atomic.Bool

// SetScalarSolve toggles the process-wide scalar-solver escape hatch
// (the -scalar-solve flag on mbavf-exp and mbavf-serve).
func SetScalarSolve(v bool) { scalarSolve.Store(v) }

// ScalarSolveForced reports whether the escape hatch is set.
func ScalarSolveForced() bool { return scalarSolve.Load() }

// PackedEligible reports whether the word-packed solver can serve the
// given fault mode: a single-wordline pattern at most 64 columns wide.
// (Every Mx1 mode in the paper's evaluation qualifies; multi-row Rect
// and wider Custom modes fall back to the scalar solver.)
func PackedEligible(mode bitgeom.FaultMode) bool {
	_, ok := mode.RowMask()
	return ok
}

// planeCounts returns how many groups of one anchor word's class planes
// are in each class (UnACE=0, FalseDUE=1, TrueDUE=2, SDC=3 over bit
// planes c0 and c1) and in the DUE union.
func planeCounts(c0, c1, due uint64) Counters {
	return Counters{
		DUE:      interval.Cycle(bits.OnesCount64(due)),
		TrueDUE:  interval.Cycle(bits.OnesCount64(c1 &^ c0)),
		FalseDUE: interval.Cycle(bits.OnesCount64(c0 &^ c1)),
		SDC:      interval.Cycle(bits.OnesCount64(c0 & c1)),
	}
}

// move moves groups from the counts in from to the counts in to.
func (c *Counters) move(from, to Counters) {
	c.DUE += to.DUE - from.DUE
	c.TrueDUE += to.TrueDUE - from.TrueDUE
	c.FalseDUE += to.FalseDUE - from.FalseDUE
	c.SDC += to.SDC - from.SDC
}

// rowSweep is the reusable scratch of one packed-sweep worker: the row
// state every query of the batch shares, plus one querySweep per query.
// All state is worker-local; nothing is shared between workers.
type rowSweep struct {
	a      *Analyzer
	window interval.Cycle
	cols   int // geometry columns per row
	bpw    int // tracker bytes per word

	rm      interleave.RowMap
	prevDom []int32 // the previous row's domains (nil before the first row)
	pk      lifetime.Packer

	// Slot index: keySlot/keyStamp map tracker slot (word*bpw+byte) to a
	// row-local slot id; stamped per row so no clearing is needed.
	keySlot  []int32
	keyStamp []int64
	rowSeq   int64

	slotByte []int32          // per slot: byte index within the word
	rawLists [][]lifetime.Seg // per slot: its tracker timeline
	segLists [][]lifetime.Seg // per slot: filtered timeline (views into segBuf)
	segBuf   []lifetime.Seg   // filtered-segment arena for the row
	stateBuf []byteState      // per filtered segment: its resolved state
	segOff   []int32          // per slot: offset into segBuf/stateBuf
	slotCols []int32          // columns grouped by slot (each ascending)
	slotOff  []int32          // per slot: offset of its columns in slotCols
	slotFill []int32          // scratch for grouping columns by slot
	colSlot  []int32          // per column: owning slot id
	colSrc   []uint8          // per column: source bit within the slot's live byte

	// Per-breakpoint occupancy. chg holds, per occupancy word, the bits
	// that changed at the current breakpoint; chgWords lists the words
	// with a non-zero chg, ascending once the breakpoint is applied.
	uarch    []uint64 // occupancy words (+2 guard words for extraction)
	live     []uint64
	chg      []uint64
	chgWords []int32

	qs     []querySweep
	active []*querySweep // the queries the current row needs

	rows, skipped, spans uint64 // observability totals
	observing            bool
	mergeChain           obs.LocalHist
}

// querySweep is one query's part of a batched row sweep: its anchor
// tables, rebuilt only when the row's domain pattern changes, and its
// class planes or per-anchor state and class counts, reset every row.
type querySweep struct {
	scheme ecc.Scheme
	s      *Series

	offs  []int32 // mode column offsets (DCol), ascending
	width int     // mode bounding width
	ac    int     // anchors (fault groups) per row
	// counted is false when every region of every group in the row is
	// corrected: the row can add nothing to this query's counters.
	counted bool

	// cnt holds how many of the row's groups are in each class (and in
	// the DUE union) since cycle since.
	cnt   Counters
	since interval.Cycle

	// Per-anchor group tables and solver state, consolidated into one
	// struct array so a group touch costs one cache line instead of a
	// load from half a dozen parallel arrays.
	anchors  []anchorState
	detRegs  []uint64 // detected-region masks, flattened
	doms     []domAcc // domain accumulation scratch (<= mode size entries)
	prevDoms []domAcc // previous anchor's partition, for table reuse

	// Uniform-row fast path: when every anchor of the row shares one
	// region partition (interleaved layouts assign domains periodically,
	// so this is the overwhelmingly common case), classification is
	// evaluated bit-sliced — one boolean-word computation classifies 64
	// anchors at once, and the class counts change by popcounts of the
	// class planes.
	uniform  bool
	detOffs  []int32 // offsets under the shared detected mask
	umOffs   []int32 // offsets under the shared undetected mask
	regStart []int32 // per detected region: offset into regOffs
	regOffs  []int32
	planeDue []uint64 // per anchor word: DUE-union bit plane
	planeC0  []uint64 // class bit 0 plane
	planeC1  []uint64 // class bit 1 plane
}

// anchorState is the per-fault-group row state: the group's region
// masks (rebuilt by buildAnchors when the domain pattern changes) and
// its classification in the span sweep (reset every row).
type anchorState struct {
	dm, um       uint64 // detected / undetected region mask unions
	prevU, prevL uint64 // masked occupancy at the last classification
	detOff       int32  // detected-region masks: detRegs[detOff:detOff+nDet]
	nDet         int32
	class        Counters // the group's class counts (see classCounts)
}

type domAcc struct {
	dom   int32
	nbits int32
	mask  uint64
}

// extract64 returns the 64 occupancy bits starting at column c. words
// carries one guard word past the row's columns, so the two-word read
// never goes out of bounds and bits past the row read as zero.
func extract64(words []uint64, c int) uint64 {
	w, s := c>>6, uint(c&63)
	x := words[w] >> s
	if s != 0 {
		x |= words[w+1] << (64 - s)
	}
	return x
}

// newRowSweep allocates one worker's scratch for the given packable
// queries, accumulating query i into dst[i].
func (a *Analyzer) newRowSweep(queries []Query, dst []*Series, window interval.Cycle) *rowSweep {
	geom := a.Layout.Geom
	rs := &rowSweep{
		a:         a,
		window:    window,
		cols:      geom.Cols,
		bpw:       a.Tracker.BytesPerWord(),
		observing: obs.Enabled(),
	}
	nslots := a.Tracker.Words() * rs.bpw
	rs.keySlot = make([]int32, nslots)
	rs.keyStamp = make([]int64, nslots)
	rs.colSlot = make([]int32, rs.cols)
	rs.colSrc = make([]uint8, rs.cols)
	// Two guard words: the bit-sliced path extracts at anchor-word
	// granularity, up to 63 columns past the last real anchor.
	nw := (rs.cols+63)/64 + 2
	rs.uarch = make([]uint64, nw)
	rs.live = make([]uint64, nw)
	rs.chg = make([]uint64, nw)
	rs.qs = make([]querySweep, len(queries))
	for i, q := range queries {
		qs := &rs.qs[i]
		qs.scheme, qs.s = q.Scheme, dst[i]
		qs.ac = geom.AnchorsPerRow(q.Mode)
		_, qs.width = q.Mode.Bounds()
		for _, o := range q.Mode.Offsets() {
			qs.offs = append(qs.offs, int32(o.DCol))
		}
		qs.anchors = make([]anchorState, qs.ac)
		naw := (qs.ac + 63) / 64
		qs.planeDue = make([]uint64, naw)
		qs.planeC0 = make([]uint64, naw)
		qs.planeC1 = make([]uint64, naw)
	}
	return rs
}

// sweepRows classifies every fault group of every packable query
// anchored in rows [rowLo, rowHi), accumulating query i into dst[i].
func (a *Analyzer) sweepRows(queries []Query, dst []*Series, window interval.Cycle, rowLo, rowHi int) {
	rs := a.newRowSweep(queries, dst, window)
	for r := rowLo; r < rowHi; r++ {
		rs.solveRow(r)
	}
	obsPackedRows.Add(rs.rows)
	obsRowsSkipped.Add(rs.skipped)
	obsMerges.Add(rs.spans)
	rs.mergeChain.FlushTo(obsMergeChain)
}

// samePattern reports whether the current row's domains are the
// previous row's shifted by one constant, so that exactly the same
// columns share a protection domain and every anchor table still holds.
// (Every named layout's rows are such shifts of each other; a row whose
// domains relate to the previous row's any other way rebuilds the
// tables, which costs time, never correctness.) It then records the
// current row's domains for the next call.
func (rs *rowSweep) samePattern() bool {
	dom := rs.rm.Dom
	same := rs.prevDom != nil && len(dom) > 0
	if same {
		k := dom[0] - rs.prevDom[0]
		for c, d := range dom {
			if d-rs.prevDom[c] != k {
				same = false
				break
			}
		}
	}
	rs.prevDom = append(rs.prevDom[:0], dom...)
	return same
}

// solveRow sweeps one wordline's packed timeline for every query that
// can count in it.
func (rs *rowSweep) solveRow(r int) {
	a := rs.a
	a.Layout.Row(r, &rs.rm)
	same := rs.samePattern() // false on a worker's first row
	rs.active = rs.active[:0]
	for i := range rs.qs {
		q := &rs.qs[i]
		if !same {
			q.buildAnchors(&rs.rm)
		}
		if !q.counted {
			rs.skipped++
			continue
		}
		q.resetRow()
		rs.active = append(rs.active, q)
	}
	if len(rs.active) == 0 {
		return // no query can count here: never packed
	}
	rs.rows++
	rs.buildSlots()
	p := rs.pk.Pack(rs.segLists, a.TotalCycles)
	clear(rs.uarch)
	clear(rs.live)

	nspans := p.Spans()
	for i := 0; i < nspans; i++ {
		t, _ := p.Span(i)
		for _, ch := range p.Changes(i) {
			var st byteState
			if ch.Seg >= 0 {
				st = rs.stateBuf[rs.segOff[ch.Slot]+ch.Seg]
			}
			cols := rs.slotCols[rs.slotOff[ch.Slot]:rs.slotOff[ch.Slot+1]]
			for _, col := range cols {
				w, b := col>>6, uint(col&63)
				bit := uint64(1) << b
				var nu, nl uint64
				if st.uarch {
					nu = bit
				}
				if st.live>>(rs.colSrc[col]&7)&1 != 0 {
					nl = bit
				}
				if rs.uarch[w]&bit == nu && rs.live[w]&bit == nl {
					continue // occupancy unchanged: no group can change class
				}
				rs.uarch[w] = rs.uarch[w]&^bit | nu
				rs.live[w] = rs.live[w]&^bit | nl
				if rs.chg[w] == 0 {
					rs.chgWords = append(rs.chgWords, w)
				}
				rs.chg[w] |= bit
			}
		}
		if len(rs.chgWords) == 0 {
			continue // no occupancy bit changed this span
		}
		slices.Sort(rs.chgWords)
		for _, q := range rs.active {
			q.advance(rs.window, t)
			if q.uniform {
				q.classifyWords(rs)
			} else {
				q.classifyAnchors(rs)
			}
		}
		for _, w := range rs.chgWords {
			rs.chg[w] = 0
		}
		rs.chgWords = rs.chgWords[:0]
	}
	for _, q := range rs.active {
		q.advance(rs.window, a.TotalCycles)
	}
	rs.spans += uint64(nspans)
	if rs.observing {
		rs.mergeChain.Observe(uint64(nspans))
	}
}

// buildSlots resolves the row's columns to tracker byte slots and
// builds the column<->slot cross references.
func (rs *rowSweep) buildSlots() {
	rs.rowSeq++
	rs.slotByte = rs.slotByte[:0]
	rs.rawLists = rs.rawLists[:0]
	for c := 0; c < rs.cols; c++ {
		word, bit := rs.rm.Word[c], rs.rm.Bit[c]
		byteIdx := bit >> 3
		key := int(word)*rs.bpw + int(byteIdx)
		if rs.keyStamp[key] != rs.rowSeq {
			rs.keyStamp[key] = rs.rowSeq
			rs.keySlot[key] = int32(len(rs.slotByte))
			rs.slotByte = append(rs.slotByte, byteIdx)
			rs.rawLists = append(rs.rawLists, rs.a.Tracker.Segments(int(word), int(byteIdx)))
		}
		rs.colSlot[c] = rs.keySlot[key]
		rs.colSrc[c] = uint8(bit & 7)
	}
	// Filter each timeline down to segments whose state can matter,
	// resolving the byte state once per segment. Dead segments — and
	// pending segments whose version is never consumed — have live == 0
	// and uarch == false, indistinguishable from gaps, so keeping them
	// would only add breakpoints that flip no occupancy bits. Adjacent
	// segments resolving to the same state merge into one span.
	rs.segBuf = rs.segBuf[:0]
	rs.stateBuf = rs.stateBuf[:0]
	nslots := len(rs.slotByte)
	if cap(rs.segOff) < nslots+1 {
		rs.segOff = make([]int32, nslots+1)
	}
	rs.segOff = rs.segOff[:nslots+1]
	for i := 0; i < nslots; i++ {
		rs.segOff[i] = int32(len(rs.segBuf))
		byteIdx := int(rs.slotByte[i])
		for _, sg := range rs.rawLists[i] {
			st := rs.a.segStateByte(sg, byteIdx)
			if !st.uarch {
				continue
			}
			if k := len(rs.segBuf); k > int(rs.segOff[i]) && rs.segBuf[k-1].End == sg.Start && rs.stateBuf[k-1] == st {
				rs.segBuf[k-1].End = sg.End
				continue
			}
			rs.segBuf = append(rs.segBuf, sg)
			rs.stateBuf = append(rs.stateBuf, st)
		}
	}
	rs.segOff[nslots] = int32(len(rs.segBuf))
	rs.segLists = rs.segLists[:0]
	for i := 0; i < nslots; i++ {
		rs.segLists = append(rs.segLists, rs.segBuf[rs.segOff[i]:rs.segOff[i+1]])
	}
	// Group columns by slot, preserving ascending column order per slot.
	if cap(rs.slotOff) < nslots+1 {
		rs.slotOff = make([]int32, nslots+1)
	}
	rs.slotOff = rs.slotOff[:nslots+1]
	clear(rs.slotOff)
	for c := 0; c < rs.cols; c++ {
		rs.slotOff[rs.colSlot[c]+1]++
	}
	for i := 0; i < nslots; i++ {
		rs.slotOff[i+1] += rs.slotOff[i]
	}
	if cap(rs.slotCols) < rs.cols {
		rs.slotCols = make([]int32, rs.cols)
	}
	rs.slotCols = rs.slotCols[:rs.cols]
	rs.slotFill = append(rs.slotFill[:0], rs.slotOff[:nslots]...)
	for c := 0; c < rs.cols; c++ {
		s := rs.colSlot[c]
		rs.slotCols[rs.slotFill[s]] = int32(c)
		rs.slotFill[s]++
	}
}

// buildAnchors precomputes, for every fault group anchored in the row,
// its region word masks and the scheme's reaction to each region size,
// and notes whether any group has a region that is not corrected.
// Interleaved layouts assign domains periodically along the row, so
// consecutive anchors usually induce the same partition of mode offsets
// into regions — when the partition repeats, the previous anchor's masks
// and reaction tables are reused without consulting the scheme again.
func (q *querySweep) buildAnchors(rm *interleave.RowMap) {
	q.detRegs = q.detRegs[:0]
	q.prevDoms = q.prevDoms[:0]
	q.uniform = true
	q.counted = false
	for a := 0; a < q.ac; a++ {
		q.doms = q.doms[:0]
		for _, o := range q.offs {
			dom := rm.Dom[a+int(o)]
			j := 0
			for ; j < len(q.doms); j++ {
				if q.doms[j].dom == dom {
					break
				}
			}
			if j == len(q.doms) {
				q.doms = append(q.doms, domAcc{dom: dom})
			}
			q.doms[j].nbits++
			q.doms[j].mask |= uint64(1) << o
		}
		// Reactions depend only on the partition shape (region sizes and
		// masks), not on domain identities.
		if a > 0 && samePartition(q.doms, q.prevDoms) {
			prev := q.anchors[a-1]
			q.anchors[a] = anchorState{dm: prev.dm, um: prev.um, detOff: prev.detOff, nDet: prev.nDet}
			continue
		}
		if a > 0 {
			q.uniform = false
		}
		var dm, um uint64
		off := int32(len(q.detRegs))
		for _, d := range q.doms {
			switch q.scheme.React(int(d.nbits)) {
			case ecc.ReactDetected:
				dm |= d.mask
				q.detRegs = append(q.detRegs, d.mask)
			case ecc.ReactUndetected:
				um |= d.mask
			}
		}
		q.anchors[a] = anchorState{dm: dm, um: um, detOff: off, nDet: int32(len(q.detRegs)) - off}
		q.counted = q.counted || dm|um != 0
		q.doms, q.prevDoms = q.prevDoms[:0], q.doms
	}
	if q.uniform && q.ac > 0 {
		q.buildUniformOffsets()
	}
}

// buildUniformOffsets flattens the row's shared partition into offset
// lists for the bit-sliced classifier: bit a of OR-over-detOffs of
// (uarch >> o) is exactly anyDet of the group anchored at column a.
func (q *querySweep) buildUniformOffsets() {
	q.detOffs, q.umOffs = q.detOffs[:0], q.umOffs[:0]
	q.regStart, q.regOffs = q.regStart[:0], q.regOffs[:0]
	an0 := q.anchors[0]
	for m := an0.dm; m != 0; m &= m - 1 {
		q.detOffs = append(q.detOffs, int32(bits.TrailingZeros64(m)))
	}
	for m := an0.um; m != 0; m &= m - 1 {
		q.umOffs = append(q.umOffs, int32(bits.TrailingZeros64(m)))
	}
	for _, reg := range q.detRegs[an0.detOff : an0.detOff+an0.nDet] {
		q.regStart = append(q.regStart, int32(len(q.regOffs)))
		for m := reg; m != 0; m &= m - 1 {
			q.regOffs = append(q.regOffs, int32(bits.TrailingZeros64(m)))
		}
	}
	q.regStart = append(q.regStart, int32(len(q.regOffs)))
}

// resetRow clears the query's sweep state for a new row, keeping its
// anchor tables.
func (q *querySweep) resetRow() {
	q.cnt, q.since = Counters{}, 0
	if q.uniform {
		clear(q.planeDue)
		clear(q.planeC0)
		clear(q.planeC1)
		return
	}
	for i := range q.anchors {
		an := &q.anchors[i]
		an.prevU, an.prevL, an.class = 0, 0, Counters{}
	}
}

// classifyWords re-classifies, bit-sliced, every anchor word a changed
// occupancy word can reach. A change at column c reaches the anchors
// [c-width+1, c]: those in c's own word, and those in the word before
// when c sits in the first width-1 columns of its word.
func (q *querySweep) classifyWords(rs *rowSweep) {
	naw := len(q.planeDue)
	low := uint64(1)<<(q.width-1) - 1
	last := -1
	for _, w32 := range rs.chgWords {
		w := int(w32)
		if w > 0 && w-1 > last && w-1 < naw && rs.chg[w]&low != 0 {
			q.classifyWord(rs, w-1)
			last = w - 1
		}
		if w < naw && w > last {
			q.classifyWord(rs, w)
			last = w
		}
	}
}

// classifyWord re-classifies the 64 groups of anchor word wi in one
// bit-sliced evaluation and moves the class counts by the planes'
// change.
func (q *querySweep) classifyWord(rs *rowSweep, wi int) {
	base := wi << 6
	var D, S, T uint64
	for _, o := range q.detOffs {
		D |= extract64(rs.uarch, base+int(o))
	}
	for _, o := range q.umOffs {
		S |= extract64(rs.live, base+int(o))
	}
	for r := 0; r+1 < len(q.regStart); r++ {
		var ur, lr uint64
		for _, o := range q.regOffs[q.regStart[r]:q.regStart[r+1]] {
			ur |= extract64(rs.uarch, base+int(o))
			lr |= extract64(rs.live, base+int(o))
		}
		T |= ur & lr
	}
	// Class planes, mirroring classify's switch bit-parallel
	// (UnACE=0, FalseDUE=1, TrueDUE=2, SDC=3).
	var sdc, td, fd uint64
	if rs.a.DetectionPreemptsSDC {
		td = D & (T | S)
		fd = D &^ (T | S)
		sdc = S &^ D
	} else {
		sdc = S
		td = T &^ S
		fd = D &^ (T | S)
	}
	valid := ^uint64(0) // the anchors of word wi that exist
	if n := q.ac - base; n < 64 {
		valid = uint64(1)<<n - 1
	}
	due := D & valid
	c0 := (fd | sdc) & valid
	c1 := (td | sdc) & valid
	p0, p1, pd := q.planeC0[wi], q.planeC1[wi], q.planeDue[wi]
	if c0 != p0 || c1 != p1 || due != pd {
		q.cnt.move(planeCounts(p0, p1, pd), planeCounts(c0, c1, due))
		q.planeC0[wi], q.planeC1[wi], q.planeDue[wi] = c0, c1, due
	}
}

// classifyAnchors re-classifies, one anchor at a time, the anchors a
// changed occupancy word can reach: per word, from width-1 columns
// before its lowest changed bit through its highest changed bit.
// Anchors in that range whose masked inputs did not change are skipped.
func (q *querySweep) classifyAnchors(rs *rowSweep) {
	next := 0 // first anchor not yet visited at this breakpoint
	for _, w32 := range rs.chgWords {
		m := rs.chg[w32]
		base := int(w32) << 6
		lo := max(base+bits.TrailingZeros64(m)-q.width+1, next)
		hi := min(base+63-bits.LeadingZeros64(m), q.ac-1)
		for ai := lo; ai <= hi; ai++ {
			an := &q.anchors[ai]
			mask := an.dm | an.um
			if mask == 0 {
				continue // every region corrected: never anything to count
			}
			u := extract64(rs.uarch, ai) & mask
			l := extract64(rs.live, ai) & mask
			if u == an.prevU && l == an.prevL {
				continue // inputs under the group's masks are unchanged
			}
			an.prevU, an.prevL = u, l
			if c := q.classify(rs, an, u, l); c != an.class {
				q.cnt.move(an.class, c)
				an.class = c
			}
		}
		next = max(next, hi+1)
	}
}

// advance adds the query's class counts over [since, t) and restarts
// the span at t.
func (q *querySweep) advance(window, t interval.Cycle) {
	if q.cnt != (Counters{}) && t > q.since {
		addCounters(q.s, window, q.cnt, q.since, t)
	}
	q.since = t
}

// samePartition reports whether two offset partitions have identical
// region masks and sizes (domain identities excluded).
func samePartition(a, b []domAcc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].mask != b[i].mask || a[i].nbits != b[i].nbits {
			return false
		}
	}
	return true
}

// classify resolves the current classification of the group an from its
// masked occupancy extracts — the word-level equivalent of the scalar
// sweep's per-region bit walk — as its class counts. u and l carry only
// bits under dm|um (the caller masks them so unchanged extracts can be
// skipped without a spurious re-classification).
func (q *querySweep) classify(rs *rowSweep, an *anchorState, u, l uint64) Counters {
	dm, um := an.dm, an.um
	anyDet := u&dm != 0
	if !anyDet && um == 0 {
		return Counters{}
	}
	anySDC := l&um != 0
	anyTrue := false
	if anyDet && l&dm != 0 {
		for _, reg := range q.detRegs[an.detOff : an.detOff+an.nDet] {
			if u&reg != 0 && l&reg != 0 {
				anyTrue = true
				break
			}
		}
	}
	cls := ClassUnACE
	if rs.a.DetectionPreemptsSDC && anyDet {
		if anyTrue || anySDC {
			cls = ClassTrueDUE
		} else {
			cls = ClassFalseDUE
		}
	} else {
		switch {
		case anySDC:
			cls = ClassSDC
		case anyTrue:
			cls = ClassTrueDUE
		case anyDet:
			cls = ClassFalseDUE
		}
	}
	return classCounts(cls, anyDet)
}
