package core

import (
	"math/bits"
	"slices"

	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
	"mbavf/internal/obs"
)

// The word-packed ACE solver, the one solver behind every analysis. A
// query whose fault mode is h wordlines tall is solved band by band: the
// band anchored at row r holds rows r..r+h-1, and its fault groups are
// the ones anchored in row r (every paper mode is one row tall, so its
// bands are single wordlines). Each band is processed once for every
// query of the batch with that height:
//
//   - the band's byte-slot timelines are merged into a single breakpoint
//     stream (lifetime.Packer);
//   - two bitmaps of 64-bit occupancy words span the band — bit p of
//     `uarch` (resp. `live`) is the microarchitectural (resp.
//     program-level) ACEness of the band's bit at flat position p at the
//     current breakpoint, where row k's column c sits at k*stride+c and
//     the stride is the row width rounded up to whole words — updated
//     incrementally as slots change state, and the bits that changed at
//     each breakpoint are kept per word;
//   - a mode offset (dr, dc) becomes the flat offset dr*stride+dc, so the
//     occupancy under offset o of the 64 groups anchored at columns
//     64w..64w+63 is the 64 occupancy bits starting at 64w+o;
//   - per query, the band's anchors are grouped into partition classes:
//     anchors whose offsets split the same way into protection domains
//     share one class and its offset lists (the offsets of its detected
//     regions and those of its undetected regions). Classifying 64 groups
//     is then a handful of shifted-word ORs per class with members in
//     their anchor word, each masked to the class's anchors. Every named
//     layout assigns domains periodically along the row, so its bands
//     have one class;
//   - anchor words are re-classified only when an occupancy word they
//     read changed, and each query keeps how many of the band's groups
//     are in each class: at every breakpoint it adds those counts times
//     the cycles since the previous one, and classification then moves
//     groups between classes.
//
// Remapping, slot filtering, packing and the occupancy replay depend only
// on (run, structure, layout, band), so they run once per band however
// many queries the batch holds; only the partition classes and the
// classification are per query. A band none of whose words is ever
// uarch-ACE (the tracker's lifetime.Summary) is not even remapped: every
// group in it is unACE for the whole run.
//
// Counters are integer sums of span-length * class contributions: the
// packed spans refine every group's own timeline (both are
// piecewise-constant partitions of the same step functions), and summing
// per span over groups regroups the per-group sums. Results are therefore
// bit-identical (==) to the per-group scalar sweep kept as the test
// oracle (oracle_test.go); solver_equiv_test.go pins this across every
// scheme x fault-mode combination and across batches.

var (
	// obsPackedRows counts bands swept by the packed solver: once per
	// band per batch, however many queries share the sweep. A band is one
	// wordline for the paper's Mx1 modes.
	obsPackedRows = obs.NewCounter("core.packed_rows")
	// obsRowsSkipped counts (query, band) pairs the packed solver skipped
	// because every region of every fault group in the band is corrected.
	obsRowsSkipped = obs.NewCounter("core.rows_skipped")
	// obsBandsEmpty counts bands the packed solver skipped because no
	// word of the band is ever uarch-ACE; each is also in
	// core.packed_rows.
	obsBandsEmpty = obs.NewCounter("core.bands_empty")
)

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

// bandSweep is the reusable scratch of one packed-sweep worker: the band
// state every query of the batch shares, plus one querySweep per query.
// All state is worker-local; nothing is shared between workers.
type bandSweep struct {
	a      *Analyzer
	window interval.Cycle
	cols   int // geometry columns per row
	stride int // flat positions per band row: cols rounded up to whole words
	bpw    int // tracker bytes per word

	sum *lifetime.Summary // the tracker's ACE summary

	// The band's remap tables, flat by position: rms[k] views row k's
	// stretch of word/bit/dom, so Layout.Row fills them in place. filled
	// is the band they hold (-1 none).
	rms       []interleave.RowMap
	word, bit []int32
	dom       []int32
	filled    int
	// The previous band's domain pattern: for a compiled layout, its
	// rows' domain shifts relative to its first row's (prevRel); for a
	// custom one, its dom (prevDom).
	compiled bool
	prevRel  []int32
	prevDom  []int32
	havePrev bool
	pk       lifetime.Packer

	// Slot index: keySlot/keyStamp map tracker slot (word*bpw+byte) to a
	// band-local slot id; stamped per band so no clearing is needed.
	keySlot  []int32
	keyStamp []int64
	bandSeq  int64

	slotByte []int32          // per slot: byte index within the word
	rawLists [][]lifetime.Seg // per slot: its tracker timeline
	segLists [][]lifetime.Seg // per slot: filtered timeline (views into segBuf)
	segBuf   []lifetime.Seg   // filtered-segment arena for the band
	stateBuf []lifetime.State // per filtered segment: its resolved state
	segOff   []int32          // per slot: offset into segBuf/stateBuf
	slotPos  []int32          // positions grouped by slot (each ascending)
	slotOff  []int32          // per slot: offset of its positions in slotPos
	slotFill []int32          // scratch for grouping positions by slot
	posSlot  []int32          // per position: owning slot id
	posSrc   []uint8          // per position: source bit within the slot's live byte

	// Per-breakpoint occupancy. chg holds, per occupancy word, the bits
	// that changed at the current breakpoint; chgWords lists the words
	// with a non-zero chg, ascending once the breakpoint is applied.
	uarch    []uint64 // occupancy words (+1 guard word for extraction)
	live     []uint64
	chg      []uint64
	chgWords []int32

	qs       []querySweep
	active   []*querySweep // the queries the current band needs
	rowWords []int32       // scratch: the words of one band row

	bands, skipped, empty, spans uint64 // observability totals
	observing                    bool
	mergeChain                   obs.LocalHist
}

// querySweep is one query's part of a batched band sweep: its partition
// classes, rebuilt only when the band's domain pattern changes, and its
// class planes and class counts, reset every band.
type querySweep struct {
	scheme ecc.Scheme
	s      *Series

	offs  []int32 // mode offsets as flat band positions, in mode order
	width int     // mode bounding width
	ac    int     // anchors (fault groups) per band
	// counted is false when every region of every group in the band is
	// corrected: the band can add nothing to this query's counters.
	counted bool

	// cnt holds how many of the band's groups are in each class (and in
	// the DUE union) since cycle since.
	cnt   Counters
	since interval.Cycle

	classes []partClass // the band's partition classes
	domIDs  []int32     // scratch: one anchor's distinct domains
	labels  []int32     // scratch: one anchor's region label per offset

	planeDue []uint64 // per anchor word: DUE-union bit plane
	planeC0  []uint64 // class bit 0 plane
	planeC1  []uint64 // class bit 1 plane
}

// partClass is one partition of the mode's offsets into regions:
// labels[j] is the region of offset j, numbered by first appearance, so
// anchors whose offsets split alike share a class whatever their domain
// ids. The offset lists, for the query's scheme, are what the classifier
// reads: bit a of OR-over-detOffs of (uarch >> o) is exactly anyDet of
// the group anchored at column a, and so on.
type partClass struct {
	// member holds, per anchor word, the class's anchors. A class whose
	// regions are all corrected can count nothing and gets no members.
	member  []uint64
	detOffs []int32 // offsets in detected regions
	umOffs  []int32 // offsets in undetected regions
	labels  []int32
}

// extract64 returns the 64 occupancy bits starting at position p. words
// carries one guard word past the band, so the two-word read never goes
// out of bounds: every anchor word's extraction starts inside the band.
func extract64(words []uint64, p int) uint64 {
	w, s := p>>6, uint(p&63)
	x := words[w] >> s
	if s != 0 {
		x |= words[w+1] << (64 - s)
	}
	return x
}

// newBandSweep allocates one worker's scratch for queries whose modes
// are h rows tall, accumulating query i into dst[i].
func (a *Analyzer) newBandSweep(h int, queries []Query, dst []*Series, window interval.Cycle, sum *lifetime.Summary) *bandSweep {
	geom := a.Layout.Geom
	stride := (geom.Cols + 63) &^ 63
	n := h * stride
	rs := &bandSweep{
		a:         a,
		window:    window,
		sum:       sum,
		cols:      geom.Cols,
		stride:    stride,
		bpw:       a.Tracker.BytesPerWord(),
		rms:       make([]interleave.RowMap, h),
		word:      make([]int32, n),
		bit:       make([]int32, n),
		dom:       make([]int32, n),
		filled:    -1,
		prevRel:   make([]int32, h),
		posSlot:   make([]int32, n),
		posSrc:    make([]uint8, n),
		uarch:     make([]uint64, n/64+1),
		live:      make([]uint64, n/64+1),
		chg:       make([]uint64, n/64+1),
		observing: obs.Enabled(),
	}
	for k := range rs.rms {
		lo, hi := k*stride, k*stride+geom.Cols
		rs.rms[k] = interleave.RowMap{Word: rs.word[lo:hi], Bit: rs.bit[lo:hi], Dom: rs.dom[lo:hi]}
	}
	if _, _, rs.compiled = a.Layout.Shift(0); !rs.compiled {
		rs.prevDom = make([]int32, n)
	}
	nslots := a.Tracker.Words() * rs.bpw
	rs.keySlot = make([]int32, nslots)
	rs.keyStamp = make([]int64, nslots)
	rs.qs = make([]querySweep, len(queries))
	for i, q := range queries {
		qs := &rs.qs[i]
		qs.scheme, qs.s = q.Scheme, dst[i]
		qs.ac = geom.AnchorsPerRow(q.Mode)
		_, qs.width = q.Mode.Bounds()
		for _, o := range q.Mode.Offsets() {
			qs.offs = append(qs.offs, int32(o.DRow*stride+o.DCol))
		}
		naw := (qs.ac + 63) / 64
		qs.planeDue = make([]uint64, naw)
		qs.planeC0 = make([]uint64, naw)
		qs.planeC1 = make([]uint64, naw)
	}
	return rs
}

// sweepBands classifies every fault group of every query anchored in
// rows [rowLo, rowHi); every query's mode is h rows tall. Query i
// accumulates into dst[i].
func (a *Analyzer) sweepBands(h int, queries []Query, dst []*Series, window interval.Cycle, sum *lifetime.Summary, rowLo, rowHi int) {
	rs := a.newBandSweep(h, queries, dst, window, sum)
	for r := rowLo; r < rowHi; r++ {
		rs.solveBand(r)
	}
	obsPackedRows.Add(rs.bands)
	obsRowsSkipped.Add(rs.skipped)
	obsBandsEmpty.Add(rs.empty)
	obsMerges.Add(rs.spans)
	rs.mergeChain.FlushTo(obsMergeChain)
}

// fill remaps the band anchored at row r into rms, unless they hold it
// already.
func (rs *bandSweep) fill(r int) {
	if rs.filled == r {
		return
	}
	for k := range rs.rms {
		rs.a.Layout.Row(r+k, &rs.rms[k])
	}
	rs.filled = r
}

// samePattern reports whether the domains of the band anchored at row r
// are the previous band's shifted by one constant, so that exactly the
// same bits share a protection domain and every partition class still
// holds. (Every named layout's rows are such shifts of each other; a
// band whose domains relate to the previous band's any other way
// rebuilds the classes, which costs time, never correctness.) It then
// records the band's pattern for the next call.
func (rs *bandSweep) samePattern(r int) bool {
	same := rs.havePrev
	rs.havePrev = true
	if rs.compiled {
		// Row k's domains are row 0's plus the row's shift, so the band's
		// domains are the previous band's plus one constant exactly when
		// its rows' shifts relative to its first row's are the previous
		// band's: no row needs remapping to tell.
		var base int32
		for k := range rs.prevRel {
			_, d, _ := rs.a.Layout.Shift(r + k)
			if k == 0 {
				base = d
			}
			same = same && d-base == rs.prevRel[k]
			rs.prevRel[k] = d - base
		}
		return same
	}
	rs.fill(r)
	shift := rs.dom[0] - rs.prevDom[0]
	for k := 0; same && k < len(rs.rms); k++ {
		prev := rs.prevDom[k*rs.stride:]
		for c, d := range rs.rms[k].Dom {
			if d-prev[c] != shift {
				same = false
				break
			}
		}
	}
	copy(rs.prevDom, rs.dom)
	return same
}

// solveBand sweeps the packed timeline of the band anchored at row r for
// every query that can count in it.
func (rs *bandSweep) solveBand(r int) {
	a := rs.a
	same := rs.samePattern(r) // false on a worker's first band
	rs.active = rs.active[:0]
	for i := range rs.qs {
		q := &rs.qs[i]
		if !same {
			rs.fill(r)
			q.buildClasses(rs.dom)
		}
		if !q.counted {
			rs.skipped++
			continue
		}
		q.resetBand()
		rs.active = append(rs.active, q)
	}
	if len(rs.active) == 0 {
		return // no query can count here: never packed
	}
	rs.bands++
	if !rs.anyACE(r) {
		// Every group is unACE for the whole run. The band counts as the
		// sweep of an empty band: one span, never remapped, slotted or
		// packed.
		rs.empty++
		rs.spans++
		if rs.observing {
			rs.mergeChain.Observe(1)
		}
		return
	}
	rs.fill(r)
	rs.buildSlots()
	p := rs.pk.Pack(rs.segLists, a.TotalCycles)
	clear(rs.uarch)
	clear(rs.live)

	nspans := p.Spans()
	for i := 0; i < nspans; i++ {
		t, _ := p.Span(i)
		for _, ch := range p.Changes(i) {
			var st lifetime.State
			if ch.Seg >= 0 {
				st = rs.stateBuf[rs.segOff[ch.Slot]+ch.Seg]
			}
			for _, pos := range rs.slotPos[rs.slotOff[ch.Slot]:rs.slotOff[ch.Slot+1]] {
				w, b := pos>>6, uint(pos&63)
				bit := uint64(1) << b
				var nu, nl uint64
				if st.Uarch {
					nu = bit
				}
				if st.Live>>(rs.posSrc[pos]&7)&1 != 0 {
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
			q.classifyWords(rs)
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

// anyACE reports whether any word of the band anchored at row r is ever
// uarch-ACE.
func (rs *bandSweep) anyACE(r int) bool {
	for k := range rs.rms {
		rs.rowWords = rs.a.Layout.RowWords(r+k, rs.rowWords[:0])
		for _, w := range rs.rowWords {
			if rs.sum.ACE(int(w)) {
				return true
			}
		}
	}
	return false
}

// buildSlots resolves the band's positions to tracker byte slots and
// builds the position<->slot cross references.
func (rs *bandSweep) buildSlots() {
	rs.bandSeq++
	rs.slotByte = rs.slotByte[:0]
	rs.rawLists = rs.rawLists[:0]
	for k := range rs.rms {
		for p := k * rs.stride; p < k*rs.stride+rs.cols; p++ {
			word, bit := rs.word[p], rs.bit[p]
			byteIdx := bit >> 3
			key := int(word)*rs.bpw + int(byteIdx)
			if rs.keyStamp[key] != rs.bandSeq {
				rs.keyStamp[key] = rs.bandSeq
				rs.keySlot[key] = int32(len(rs.slotByte))
				rs.slotByte = append(rs.slotByte, byteIdx)
				rs.rawLists = append(rs.rawLists, rs.a.Tracker.Segments(int(word), int(byteIdx)))
			}
			rs.posSlot[p] = rs.keySlot[key]
			rs.posSrc[p] = uint8(bit & 7)
		}
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
			st := sg.Resolve(rs.a.Graph, rs.a.WordVersions, byteIdx)
			if !st.Uarch {
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
	// Group positions by slot, preserving ascending position order per
	// slot.
	if cap(rs.slotOff) < nslots+1 {
		rs.slotOff = make([]int32, nslots+1)
	}
	rs.slotOff = rs.slotOff[:nslots+1]
	clear(rs.slotOff)
	for k := range rs.rms {
		for _, s := range rs.posSlot[k*rs.stride : k*rs.stride+rs.cols] {
			rs.slotOff[s+1]++
		}
	}
	for i := 0; i < nslots; i++ {
		rs.slotOff[i+1] += rs.slotOff[i]
	}
	npos := len(rs.rms) * rs.cols
	if cap(rs.slotPos) < npos {
		rs.slotPos = make([]int32, npos)
	}
	rs.slotPos = rs.slotPos[:npos]
	rs.slotFill = append(rs.slotFill[:0], rs.slotOff[:nslots]...)
	for k := range rs.rms {
		for p := k * rs.stride; p < k*rs.stride+rs.cols; p++ {
			s := rs.posSlot[p]
			rs.slotPos[rs.slotFill[s]] = int32(p)
			rs.slotFill[s]++
		}
	}
}

// buildClasses groups the band's anchors into partition classes and
// notes whether any anchor belongs to a class that can count.
func (q *querySweep) buildClasses(dom []int32) {
	q.classes = q.classes[:0]
	q.counted = false
	cur := -1 // the previous anchor's class
	for a := 0; a < q.ac; a++ {
		q.partition(dom, a)
		if cur < 0 || !slices.Equal(q.classes[cur].labels, q.labels) {
			cur = q.classOf()
		}
		if c := &q.classes[cur]; len(c.detOffs)+len(c.umOffs) > 0 {
			c.member[a>>6] |= 1 << (a & 63)
			q.counted = true
		}
	}
}

// partition labels, into q.labels, the region of each mode offset of the
// group anchored at column a, numbering regions by first appearance.
func (q *querySweep) partition(dom []int32, a int) {
	q.domIDs, q.labels = q.domIDs[:0], q.labels[:0]
	for _, o := range q.offs {
		d := dom[a+int(o)]
		r := slices.Index(q.domIDs, d)
		if r < 0 {
			r = len(q.domIDs)
			q.domIDs = append(q.domIDs, d)
		}
		q.labels = append(q.labels, int32(r))
	}
}

// classOf returns the index of the class of the partition in q.labels,
// adding the class, with its offset lists under the query's scheme, when
// it is new. Reactions depend only on region sizes, not on domain
// identities.
func (q *querySweep) classOf() int {
	for i := range q.classes {
		if slices.Equal(q.classes[i].labels, q.labels) {
			return i
		}
	}
	c := partClass{labels: slices.Clone(q.labels), member: make([]uint64, len(q.planeDue))}
	for r := range q.domIDs {
		var region []int32
		for j, l := range q.labels {
			if int(l) == r {
				region = append(region, q.offs[j])
			}
		}
		switch q.scheme.React(len(region)) {
		case ecc.ReactDetected:
			c.detOffs = append(c.detOffs, region...)
		case ecc.ReactUndetected:
			c.umOffs = append(c.umOffs, region...)
		}
	}
	q.classes = append(q.classes, c)
	return len(q.classes) - 1
}

// planes evaluates the class for the 64 anchors from base: whether a
// detected region is ACE (d), an undetected region is live (s), and a
// detected region is both ACE and live (t). A live bit is always
// uarch-ACE (lifetime.Seg.Resolve resolves liveness only for uarch-ACE
// segments), so a detected region is both exactly when one of its bits
// is live, and t needs no per-region lists.
func (c *partClass) planes(uarch, live []uint64, base int) (d, s, t uint64) {
	for _, o := range c.detOffs {
		d |= extract64(uarch, base+int(o))
		t |= extract64(live, base+int(o))
	}
	for _, o := range c.umOffs {
		s |= extract64(live, base+int(o))
	}
	return d, s, t
}

// resetBand clears the query's sweep state for a new band, keeping its
// partition classes.
func (q *querySweep) resetBand() {
	q.cnt, q.since = Counters{}, 0
	clear(q.planeDue)
	clear(q.planeC0)
	clear(q.planeC1)
}

// classifyWords re-classifies every anchor word a changed occupancy word
// can reach. A change at column c of any band row reaches the anchors
// [c-width+1, c], which may span several anchor words for wide modes.
// The changed words are ascending, so within one band row the reached
// anchor words ascend too and each is visited once; a word reached from
// two rows is re-classified twice, which changes nothing.
func (q *querySweep) classifyWords(rs *bandSweep) {
	rowWords := rs.stride >> 6
	top := len(q.planeDue) - 1 // the last anchor word
	rowBase, done := 0, -1     // first word of the current band row; last anchor word visited from it
	for _, w32 := range rs.chgWords {
		w := int(w32)
		for w >= rowBase+rowWords {
			rowBase += rowWords
			done = -1
		}
		cw := w - rowBase
		lo := cw // the anchor word reached from the lowest changed column
		if cw > 0 {
			lo = max(cw<<6+bits.TrailingZeros64(rs.chg[w])-q.width+1, 0) >> 6
		}
		for wi := max(lo, done+1); wi <= min(cw, top); wi++ {
			q.classifyWord(rs, wi)
			done = wi
		}
	}
}

// classifyWord re-classifies the 64 groups of anchor word wi in one
// bit-sliced evaluation and moves the class counts by the planes'
// change.
func (q *querySweep) classifyWord(rs *bandSweep, wi int) {
	base := wi << 6
	var D, S, T uint64
	for i := range q.classes {
		c := &q.classes[i]
		m := c.member[wi]
		if m == 0 {
			continue
		}
		d, s, t := c.planes(rs.uarch, rs.live, base)
		D |= d & m
		S |= s & m
		T |= t & m
	}
	// Class planes (UnACE=0, FalseDUE=1, TrueDUE=2, SDC=3), from whether
	// a group has a detected ACE region (D), an undetected live region
	// (S), and a detected region that is both ACE and live (T).
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
	c0, c1 := fd|sdc, td|sdc
	p0, p1, pd := q.planeC0[wi], q.planeC1[wi], q.planeDue[wi]
	if c0 != p0 || c1 != p1 || D != pd {
		q.cnt.move(planeCounts(p0, p1, pd), planeCounts(c0, c1, D))
		q.planeC0[wi], q.planeC1[wi], q.planeDue[wi] = c0, c1, D
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
