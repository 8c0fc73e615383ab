// Package core implements the paper's contribution: architectural
// vulnerability factor analysis for spatial multi-bit transient faults
// (MB-AVF), via ACE analysis over per-bit lifetime timelines.
//
// For a hardware structure laid out by an interleave.Layout, a fault mode
// defines fault groups (sets of physically adjacent bits that flip
// together, Section IV-A). Each fault group is split by the layout into
// overlapped regions — the bits it shares with each protection domain
// (Section V-A). At every cycle, each region is classified from:
//
//   - the protection scheme's reaction to the region's size (corrected /
//     detected / undetected), and
//   - the region's ACEness: microarchitectural ACE (uarch: the value will
//     be consumed) for DUE analysis, and program-level liveness (prog: the
//     bits influence program output) for SDC analysis, per Section VII-B.
//
// The group's classification is the worst of its regions (SDC > true DUE >
// false DUE > unACE), with the optional detection-preempts-SDC rule used
// for inter-thread interleaved register files (Section VIII). The DUE
// MB-AVF of equations 6-7 — the union over regions of detected-and-ACE
// time — is accumulated independently of the four-class split so that both
// of the paper's models are available from one pass.
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"mbavf/internal/bitgeom"
	"mbavf/internal/dataflow"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
	"mbavf/internal/obs"
)

// Observability series for the MB-AVF engine. Sweep workers accumulate
// into plain locals (counters and LocalHists) and publish one atomic
// flush per shard, so the band sweep's inner loop never touches shared
// state.
var (
	obsAnalyses = obs.NewCounter("core.analyses")
	obsGroups   = obs.NewCounter("core.fault_groups")
	obsMerges   = obs.NewCounter("core.interval_merges")
	// obsGroupBits is the distribution of fault-group sizes in bits (how
	// many physical bits flip together per enumerated group).
	obsGroupBits = obs.NewHistogram("core.group_bits")
	// obsMergeChain is the distribution of interval-merge chain lengths:
	// how many breakpoint spans one band's packed timeline had.
	obsMergeChain = obs.NewHistogram("core.merge_chain")
)

// Analyzer computes MB-AVFs for one hardware structure from one workload
// run.
type Analyzer struct {
	// Name labels this analyzer's observability spans (typically the
	// workload name, e.g. "minife"). Empty is fine: spans fall back to a
	// generic label.
	Name string
	// Layout maps physical bits to logical words and protection domains.
	Layout *interleave.Layout
	// Tracker holds the structure's per-byte lifetime segments.
	Tracker *lifetime.Tracker
	// Graph is the solved dataflow graph of the run.
	Graph *dataflow.Graph
	// WordVersions is true when the tracker records one version for a
	// whole multi-byte word (register files); false when each byte has
	// its own version (caches).
	WordVersions bool
	// TotalCycles is the AVF denominator N: the length of the measured
	// execution.
	TotalCycles interval.Cycle
	// DetectionPreemptsSDC applies the case-study rule: when a detected
	// ACE region coexists with an SDC region in a fault group, detection
	// fires before the corruption propagates, converting the SDC into a
	// (true) DUE. Valid for structures read in lock-step groups, like
	// inter-thread interleaved VGPRs.
	DetectionPreemptsSDC bool
	// Parallelism bounds the worker goroutines used to sweep fault
	// groups. Zero means GOMAXPROCS; one forces a serial sweep. Results
	// are identical at any setting (fault groups are independent).
	Parallelism int
}

// Validate checks that the layout and tracker describe the same structure.
func (a *Analyzer) Validate() error {
	if a.Layout == nil || a.Tracker == nil || a.Graph == nil {
		return fmt.Errorf("core: analyzer needs layout, tracker, and graph")
	}
	if a.TotalCycles == 0 {
		return fmt.Errorf("core: TotalCycles is zero")
	}
	if a.Layout.Words != a.Tracker.Words() {
		return fmt.Errorf("core: layout has %d words, tracker %d", a.Layout.Words, a.Tracker.Words())
	}
	if a.Layout.WordBits != a.Tracker.BytesPerWord()*8 {
		return fmt.Errorf("core: layout words are %d bits, tracker words %d",
			a.Layout.WordBits, a.Tracker.BytesPerWord()*8)
	}
	return nil
}

// byteCursor walks one byte slot's lifetime timeline in time order,
// exposing a piecewise-constant state. Gaps between segments are dead.
// The per-segment state is memoized so repeated spans within one segment
// cost nothing.
type byteCursor struct {
	segs     []lifetime.Seg
	idx      int
	byteIdx  int // byte within word (for word-granular versions)
	analyzer *Analyzer
	cached   int // segment index the memoized state belongs to (-1 none)
	state    lifetime.State
}

// stateAt returns the byte's state during [t, next); next is the first
// cycle at which the state may change.
func (c *byteCursor) stateAt(t interval.Cycle) (lifetime.State, interval.Cycle) {
	for c.idx < len(c.segs) && c.segs[c.idx].End <= t {
		c.idx++
	}
	if c.idx >= len(c.segs) {
		return lifetime.State{}, c.analyzer.TotalCycles
	}
	seg := c.segs[c.idx]
	if t < seg.Start {
		return lifetime.State{}, seg.Start
	}
	if c.cached != c.idx {
		c.state = seg.Resolve(c.analyzer.Graph, c.analyzer.WordVersions, c.byteIdx)
		c.cached = c.idx
	}
	return c.state, seg.End
}

// Counters accumulates classified cycles.
type Counters struct {
	// DUE is the Section V model (equations 6-7): cycles during which any
	// region of the group is detected and uarch-ACE, ignoring SDC overlap.
	DUE interval.Cycle
	// TrueDUE, FalseDUE and SDC are the four-class precedence model of
	// Section VII-B.
	TrueDUE  interval.Cycle
	FalseDUE interval.Cycle
	SDC      interval.Cycle
}

func (c *Counters) add(o Counters) {
	c.DUE += o.DUE
	c.TrueDUE += o.TrueDUE
	c.FalseDUE += o.FalseDUE
	c.SDC += o.SDC
}

// Result is the MB-AVF of one (structure, scheme, fault mode) combination.
type Result struct {
	SchemeName  string
	ModeName    string
	ModeSize    int
	Groups      int
	Bits        int
	TotalCycles interval.Cycle
	// Group-level classified cycles summed over all fault groups.
	Counters Counters
	// BitUarch / BitLive are bit-level ACE cycle totals over all bits:
	// the raw single-bit ACE fractions used for normalization.
	BitUarch interval.Cycle
	BitLive  interval.Cycle
}

func (r *Result) denomGroups() float64 {
	return float64(r.Groups) * float64(r.TotalCycles)
}

// DUEMBAVF returns the detected-uncorrected-error MB-AVF (Section V
// model).
func (r *Result) DUEMBAVF() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.Counters.DUE) / r.denomGroups()
}

// SDCMBAVF returns the silent-data-corruption MB-AVF.
func (r *Result) SDCMBAVF() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.Counters.SDC) / r.denomGroups()
}

// TrueDUEMBAVF returns the true-DUE MB-AVF of the four-class model.
func (r *Result) TrueDUEMBAVF() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.Counters.TrueDUE) / r.denomGroups()
}

// FalseDUEMBAVF returns the false-DUE MB-AVF of the four-class model.
func (r *Result) FalseDUEMBAVF() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.Counters.FalseDUE) / r.denomGroups()
}

// BitAVF returns the structure's conservative single-bit ACE fraction
// (microarchitectural ACE bit-cycles over all bit-cycles) — the
// traditional unprotected SB-AVF used for normalization in the paper's
// figures.
func (r *Result) BitAVF() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.BitUarch) / (float64(r.Bits) * float64(r.TotalCycles))
}

// BitAVFLive returns the program-level (SDC) single-bit ACE fraction.
func (r *Result) BitAVFLive() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.BitLive) / (float64(r.Bits) * float64(r.TotalCycles))
}

// Analyze computes the MB-AVF of fault mode under scheme.
func (a *Analyzer) Analyze(scheme ecc.Scheme, mode bitgeom.FaultMode) (*Result, error) {
	series, err := a.AnalyzeWindowed(scheme, mode, 0)
	if err != nil {
		return nil, err
	}
	return &series.Total, nil
}

// Series is a windowed MB-AVF time profile: Total plus one Result per
// window of Window cycles (the paper's Figures 5 and 8 plots).
type Series struct {
	Window  interval.Cycle
	Total   Result
	Windows []Result
}

// PublishGauges exposes the series' per-window DUE and SDC MB-AVF (plus
// the whole-run totals) as observability float gauges named
// avf.<structure>.<mode>.{due,sdc}.{total,w<i>}, so a scrape of the debug
// endpoint's /metrics sees the time-resolved vulnerability profile of
// every analyzed structure.
func (s *Series) PublishGauges(structure string) {
	if !obs.Enabled() {
		return
	}
	prefix := "avf." + structure + "." + s.Total.ModeName + "."
	obs.NewFloatGauge(prefix + "due.total").Set(s.Total.DUEMBAVF())
	obs.NewFloatGauge(prefix + "sdc.total").Set(s.Total.SDCMBAVF())
	for i := range s.Windows {
		w := &s.Windows[i]
		obs.NewFloatGauge(fmt.Sprintf("%sdue.w%03d", prefix, i)).Set(w.DUEMBAVF())
		obs.NewFloatGauge(fmt.Sprintf("%ssdc.w%03d", prefix, i)).Set(w.SDCMBAVF())
	}
}

// AnalyzeWindowed computes the MB-AVF of fault mode under scheme, also
// accumulating per-window counters when window > 0.
func (a *Analyzer) AnalyzeWindowed(scheme ecc.Scheme, mode bitgeom.FaultMode, window interval.Cycle) (*Series, error) {
	out, err := a.AnalyzeMany(window, []Query{{Scheme: scheme, Mode: mode}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Query is one (protection scheme, fault mode) pair of a batched
// analysis.
type Query struct {
	Scheme ecc.Scheme
	Mode   bitgeom.FaultMode
}

// AnalyzeMany computes the MB-AVF of every query over the same run,
// structure and layout, returning one Series per query in query order,
// each == to what AnalyzeWindowed returns for that query alone. Queries
// whose modes are equally tall share one band sweep: each band of
// wordlines is remapped, packed and replayed once for all of them, and
// only classification is per query. The SB-AVF numerators, which depend
// on neither scheme nor mode, are accumulated once.
func (a *Analyzer) AnalyzeMany(window interval.Cycle, queries []Query) ([]*Series, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	geom := a.Layout.Geom
	for _, q := range queries {
		if geom.GroupCount(q.Mode) == 0 {
			return nil, fmt.Errorf("core: fault mode %s does not fit geometry %dx%d",
				q.Mode.Name(), geom.Rows, geom.Cols)
		}
	}
	label := a.Name
	if label == "" {
		label = "mbavf"
	}
	sp := obs.StartSpan2("analyze:", label)
	defer sp.End()
	// The SB-AVF numerators depend on neither scheme nor mode: one
	// accumulation serves every query, and the tracker's summary holds
	// the whole-run ones.
	sum := a.Tracker.Summary(a.Graph, a.WordVersions, a.TotalCycles)
	bitSums := a.newSeries(window)
	if window == 0 {
		bitSums.Total.BitUarch, bitSums.Total.BitLive = sum.BitUarch, sum.BitLive
	} else {
		a.accumulateBits(bitSums, window)
	}

	out := make([]*Series, len(queries))
	// Queries of one mode height share one band sweep.
	type heightGroup struct {
		h   int
		qs  []Query
		dst []*Series
	}
	var byHeight []heightGroup
	var groupBits obs.LocalHist
	for i, q := range queries {
		groups := geom.GroupCount(q.Mode)
		obsAnalyses.Add(1)
		obsGroups.Add(uint64(groups))
		if obs.Enabled() {
			groupBits.ObserveN(uint64(q.Mode.Size()), uint64(groups))
		}
		out[i] = bitSums.forQuery(q, groups)
		h, _ := q.Mode.Bounds()
		j := slices.IndexFunc(byHeight, func(g heightGroup) bool { return g.h == h })
		if j < 0 {
			j = len(byHeight)
			byHeight = append(byHeight, heightGroup{h: h})
		}
		byHeight[j].qs = append(byHeight[j].qs, q)
		byHeight[j].dst = append(byHeight[j].dst, out[i])
	}
	groupBits.FlushTo(obsGroupBits)
	for _, g := range byHeight {
		// The bands anchored at rows [0, Rows-h] are the shard units.
		a.sharded(g.dst, geom.Rows-g.h+1, func(dst []*Series, lo, hi int) {
			a.sweepBands(g.h, g.qs, dst, window, sum, lo, hi)
		})
	}
	return out, nil
}

// newSeries returns an empty series with one Result per window of
// window cycles (none when window is zero).
func (a *Analyzer) newSeries(window interval.Cycle) *Series {
	nbits := a.Layout.Geom.Bits()
	s := &Series{Window: window, Total: Result{Bits: nbits, TotalCycles: a.TotalCycles}}
	for start := interval.Cycle(0); window > 0 && start < a.TotalCycles; start += window {
		s.Windows = append(s.Windows, Result{Bits: nbits, TotalCycles: min(window, a.TotalCycles-start)})
	}
	return s
}

// forQuery returns a copy of s labelled with query q and its group
// count.
func (s *Series) forQuery(q Query, groups int) *Series {
	out := &Series{Window: s.Window, Total: s.Total, Windows: slices.Clone(s.Windows)}
	label := func(r *Result) {
		r.SchemeName, r.ModeName, r.ModeSize, r.Groups = q.Scheme.Name(), q.Mode.Name(), q.Mode.Size(), groups
	}
	label(&out.Total)
	for i := range out.Windows {
		label(&out.Windows[i])
	}
	return out
}

// sharded runs sweep over work units [0, units) into dst, split into
// contiguous shards across up to Parallelism workers (zero means
// GOMAXPROCS). Each worker sweeps into private shadow series whose
// counters merge into dst at the end; counters are integer sums, so
// results are identical at any setting.
func (a *Analyzer) sharded(dst []*Series, units int, sweep func(dst []*Series, lo, hi int)) {
	workers := a.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, units)
	if workers <= 1 {
		sweep(dst, 0, units)
		return
	}
	shadows := make([][]*Series, workers)
	var wg sync.WaitGroup
	per := (units + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := min(lo+per, units)
		if lo >= hi {
			break
		}
		sh := make([]*Series, len(dst))
		for i, s := range dst {
			sh[i] = &Series{Windows: make([]Result, len(s.Windows))}
		}
		shadows[w] = sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(sh, lo, hi)
		}()
	}
	wg.Wait()
	for _, sh := range shadows {
		for i, s := range sh {
			dst[i].Total.Counters.add(s.Total.Counters)
			for w := range s.Windows {
				dst[i].Windows[w].Counters.add(s.Windows[w].Counters)
			}
		}
	}
}

// addCounters adds the span [start, end) into the total and window
// counters of s, weighted by n: n.DUE groups in the DUE union, n.TrueDUE
// groups in the true-DUE class, and so on.
func addCounters(s *Series, window interval.Cycle, n Counters, start, end interval.Cycle) {
	s.Total.Counters.addScaled(n, end-start)
	if window == 0 {
		return
	}
	for wi := int(start / window); ; wi++ {
		ws := interval.Cycle(wi) * window
		if ws >= end || wi >= len(s.Windows) {
			break
		}
		we := ws + window
		overlap := min(end, we) - max(start, ws)
		s.Windows[wi].Counters.addScaled(n, overlap)
	}
}

// addScaled adds k cycles for each group counted in n.
func (c *Counters) addScaled(n Counters, k interval.Cycle) {
	c.DUE += n.DUE * k
	c.TrueDUE += n.TrueDUE * k
	c.FalseDUE += n.FalseDUE * k
	c.SDC += n.SDC * k
}

// addBitCycles distributes bit-level ACE cycles into total and windows,
// weighted by the number of uarch-ACE and live bits in the byte.
func addBitCycles(s *Series, window interval.Cycle, uarchBits, liveBits int, start, end interval.Cycle) {
	addOne := func(r *Result, n interval.Cycle) {
		r.BitUarch += interval.Cycle(uarchBits) * n
		r.BitLive += interval.Cycle(liveBits) * n
	}
	addOne(&s.Total, end-start)
	if window == 0 {
		return
	}
	for wi := int(start / window); ; wi++ {
		ws := interval.Cycle(wi) * window
		if ws >= end || wi >= len(s.Windows) {
			break
		}
		we := ws + window
		overlap := min(end, we) - max(start, ws)
		addOne(&s.Windows[wi], overlap)
	}
}

// accumulateBits sums raw per-bit ACE time (the SB-AVF numerators).
func (a *Analyzer) accumulateBits(s *Series, window interval.Cycle) {
	for w := 0; w < a.Tracker.Words(); w++ {
		for b := 0; b < a.Tracker.BytesPerWord(); b++ {
			for _, seg := range a.Tracker.Segments(w, b) {
				end := min(seg.End, a.TotalCycles)
				if end <= seg.Start {
					continue
				}
				st := seg.Resolve(a.Graph, a.WordVersions, b)
				if !st.Uarch {
					continue
				}
				liveBits := bits.OnesCount8(st.Live)
				addBitCycles(s, window, 8, liveBits, seg.Start, end)
			}
		}
	}
}
