// Package lifetime tracks the occupancy and access history of every byte
// slot in a hardware structure (a cache data array, a register file) and
// reduces it to per-byte ACE lifetime segments.
//
// The classification follows standard ACE lifetime analysis (Biswas et
// al.), extended with deferred resolution for dirty evictions:
//
//   - a segment ending in a read is ACE: a flip during it corrupts the
//     value consumed by that read;
//   - a segment ending in an overwrite or a clean eviction is unACE: the
//     flipped copy is discarded;
//   - a segment ending in a dirty eviction is Pending: the flip escapes to
//     the next memory level, so it is ACE exactly when the evicted value
//     (version) is consumed after the eviction — resolved later against
//     the dataflow graph.
//
// Slots are identified by (word, byte): word is a physical slot index
// (cache line frame = set*ways+way, or register instance = thread*regs +
// reg), not a memory address — the structure under analysis is the SRAM,
// whose content changes over time.
package lifetime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mbavf/internal/dataflow"
	"mbavf/internal/interval"
	"mbavf/internal/obs"
)

// Observability series: the distribution of lifetime-segment lengths in
// cycles, split by resolved ACEness kind. Recorded once per tracker at
// Finish (a single pass over the finished timeline), never on the
// per-event hot path.
var (
	obsACESegCycles     = obs.NewHistogram("lifetime.ace_seg_cycles")
	obsPendingSegCycles = obs.NewHistogram("lifetime.pending_seg_cycles")
)

// SegKind classifies a lifetime segment's microarchitectural ACEness.
type SegKind uint8

const (
	// SegDead marks time when a flip in the byte cannot propagate: the
	// value is overwritten, discarded on clean eviction, or never touched
	// again.
	SegDead SegKind = iota
	// SegACE marks time ending in an architectural read of the byte.
	SegACE
	// SegPending marks time ending in a dirty eviction; ACEness depends
	// on whether the evicted version is consumed after the eviction.
	SegPending
)

func (k SegKind) String() string {
	switch k {
	case SegDead:
		return "dead"
	case SegACE:
		return "ace"
	case SegPending:
		return "pending"
	default:
		return fmt.Sprintf("SegKind(%d)", uint8(k))
	}
}

// Seg is one lifetime segment of one byte slot: during [Start, End) the
// slot held Version and the segment's ACEness is Kind (Pending resolved
// later).
type Seg struct {
	Start, End interval.Cycle
	Kind       SegKind
	Version    dataflow.VersionID
}

// logPageRecs is the number of closed segments one page of a tracker's
// recording log holds (96 KiB of 24-byte records).
const logPageRecs = 1 << 12

// maxSlots bounds a tracker's byte slots so that a slot index fits the
// 30 bits a log record leaves it beside the segment kind.
const maxSlots = 1 << 30

// logRec is one closed segment in a tracker's recording log. The slot
// and the kind share one word, so a record is 24 bytes.
type logRec struct {
	start, end interval.Cycle
	version    dataflow.VersionID
	slotKind   uint32 // slot<<2 | kind
}

// Tracker accumulates lifetime segments for a words x bytesPerWord
// structure.
//
// Recording appends each closed segment to a log of fixed-size pages, so
// the per-event path never regrows or copies what it already recorded.
// Finish seals the log once into the read layout: per-slot subslices of
// one exact-size arena, the layout the run-artifact decoder builds.
// Reads before Finish seal whatever has been logged so far; after
// Finish, reads write nothing, so a finished tracker is safe to share
// between concurrent readers.
type Tracker struct {
	words, bytesPerWord int

	// segs is the sealed layout: slot i's segments in time order.
	segs [][]Seg

	// Recording state (nil in adopted trackers): per slot, whether it
	// holds a value, which version, and since which cycle.
	held    []bool
	version []dataflow.VersionID
	start   []interval.Cycle

	// pages is the recording log and logged its record count; records
	// [0, sealed) are already in segs. mu serializes the seals of
	// concurrent readers of an unfinished tracker.
	pages  []*[logPageRecs]logRec
	logged int64
	sealed atomic.Int64
	mu     sync.Mutex

	// finished is set by Finish and Adopt: the segments can no longer
	// grow, so sum, the Summary last built under sumKey, can be kept.
	finished bool
	sumMu    sync.Mutex
	sumKey   summaryKey
	sum      *Summary
}

// NewTracker returns a tracker for a structure of words logical words of
// bytesPerWord bytes each.
func NewTracker(words, bytesPerWord int) *Tracker {
	n := words * bytesPerWord
	if n > maxSlots {
		panic(fmt.Sprintf("lifetime: %dx%d structure exceeds %d byte slots", words, bytesPerWord, maxSlots))
	}
	return &Tracker{
		words:        words,
		bytesPerWord: bytesPerWord,
		segs:         make([][]Seg, n),
		held:         make([]bool, n),
		version:      make([]dataflow.VersionID, n),
		start:        make([]interval.Cycle, n),
	}
}

// Words returns the number of word slots tracked.
func (t *Tracker) Words() int { return t.words }

// BytesPerWord returns the byte width of each word slot.
func (t *Tracker) BytesPerWord() int { return t.bytesPerWord }

func (t *Tracker) idx(word, b int) int {
	if word < 0 || word >= t.words || b < 0 || b >= t.bytesPerWord {
		panic(fmt.Sprintf("lifetime: slot (%d,%d) out of range %dx%d", word, b, t.words, t.bytesPerWord))
	}
	return word*t.bytesPerWord + b
}

func (t *Tracker) close(i int, cycle interval.Cycle, kind SegKind) {
	if !t.held[i] {
		return
	}
	if cycle > t.start[i] {
		o := t.logged % logPageRecs
		if o == 0 {
			t.pages = append(t.pages, new([logPageRecs]logRec))
		}
		t.pages[len(t.pages)-1][o] = logRec{start: t.start[i], end: cycle, version: t.version[i], slotKind: uint32(i)<<2 | uint32(kind)}
		t.logged++
	}
	t.start[i] = cycle
}

// Open records that the byte slot starts holding version ver at cycle
// (a cache fill or a write). Any value previously held is closed as dead:
// an overwrite discards flips.
func (t *Tracker) Open(word, b int, cycle interval.Cycle, ver dataflow.VersionID) {
	i := t.idx(word, b)
	t.close(i, cycle, SegDead)
	t.held[i] = true
	t.version[i] = ver
	t.start[i] = cycle
}

// Read records an architectural read of the byte slot at cycle: the time
// since the previous event is ACE.
func (t *Tracker) Read(word, b int, cycle interval.Cycle) {
	i := t.idx(word, b)
	if !t.held[i] {
		return
	}
	t.close(i, cycle, SegACE)
}

// CloseClean records that the slot's value is discarded at cycle (clean
// eviction or invalidation): the tail time is dead.
func (t *Tracker) CloseClean(word, b int, cycle interval.Cycle) {
	i := t.idx(word, b)
	t.close(i, cycle, SegDead)
	t.held[i] = false
}

// CloseDirty records that the slot's value escapes to the next level at
// cycle (dirty eviction / writeback): the tail time is pending on later
// consumption of the version.
func (t *Tracker) CloseDirty(word, b int, cycle interval.Cycle) {
	i := t.idx(word, b)
	t.close(i, cycle, SegPending)
	t.held[i] = false
}

// Finish closes every still-open slot as dead at the end cycle, seals
// the recording log and drops it. It ends the recording: a finished
// tracker records nothing more, which is what lets it keep its Summary.
// Callers that need dirty end-of-run state to stay visible should flush
// their structures (producing CloseDirty events) before calling Finish.
func (t *Tracker) Finish(end interval.Cycle) {
	for i := range t.held {
		if t.held[i] {
			t.close(i, end, SegDead)
			t.held[i] = false
		}
	}
	if t.sealed.Load() != t.logged {
		t.seal()
	}
	t.pages, t.logged = nil, 0
	t.sealed.Store(0)
	t.finished = true
	t.publishObs()
}

// ensureSealed seals the records logged since the last seal; only reads
// before Finish find any.
func (t *Tracker) ensureSealed() {
	if t.sealed.Load() != t.logged {
		t.sealLocked()
	}
}

func (t *Tracker) sealLocked() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed.Load() != t.logged {
		t.seal()
	}
}

// seal merges the records logged since the last seal into a new
// exact-size arena, each slot's after its already-sealed segments. The
// log is in time order, so each slot's records are too.
func (t *Tracker) seal() {
	from, to := t.sealed.Load(), t.logged
	var chunks [][]logRec
	for p := from / logPageRecs; p*logPageRecs < to; p++ {
		lo, hi := max(from-p*logPageRecs, 0), min(to-p*logPageRecs, logPageRecs)
		chunks = append(chunks, t.pages[p][lo:hi])
	}
	// pos[i] becomes slot i's first arena index, then serves as its
	// write cursor, ending as slot i+1's first index.
	pos := make([]int, len(t.segs)+1)
	for i, s := range t.segs {
		pos[i+1] = len(s)
	}
	for _, c := range chunks {
		for k := range c {
			pos[c[k].slotKind>>2+1]++
		}
	}
	for i := 1; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	arena := make([]Seg, pos[len(pos)-1])
	for i, s := range t.segs {
		pos[i] += copy(arena[pos[i]:], s)
	}
	for _, c := range chunks {
		for k := range c {
			r := &c[k]
			s := r.slotKind >> 2
			arena[pos[s]] = Seg{Start: r.start, End: r.end, Kind: SegKind(r.slotKind & 3), Version: r.version}
			pos[s]++
		}
	}
	lo := 0
	for i := range t.segs {
		hi := pos[i]
		t.segs[i] = nil
		if hi > lo {
			t.segs[i] = arena[lo:hi:hi]
		}
		lo = hi
	}
	t.sealed.Store(to)
}

// publishObs records the finished timeline's ACE and pending segment
// lengths into the lifetime histograms via goroutine-local accumulators.
func (t *Tracker) publishObs() {
	if !obs.Enabled() {
		return
	}
	var ace, pending obs.LocalHist
	for _, segs := range t.segs {
		for _, s := range segs {
			switch s.Kind {
			case SegACE:
				ace.Observe(s.End - s.Start)
			case SegPending:
				pending.Observe(s.End - s.Start)
			}
		}
	}
	ace.FlushTo(obsACESegCycles)
	pending.FlushTo(obsPendingSegCycles)
}

// Segments returns the lifetime segments of byte b of word. The slice is
// owned by the tracker.
func (t *Tracker) Segments(word, b int) []Seg {
	i := t.idx(word, b)
	t.ensureSealed()
	return t.segs[i]
}

// SegmentCount returns the total number of segments recorded, for
// reporting and memory budgeting.
func (t *Tracker) SegmentCount() int {
	t.ensureSealed()
	n := 0
	for _, s := range t.segs {
		n += len(s)
	}
	return n
}

// Adopt builds a finished tracker directly over segs without copying:
// the caller hands over ownership of the slice and must not mutate it
// afterwards. It is the rehydration path of the run-artifact store,
// where the decoded segments are freshly allocated and copying them
// again would double decode cost. An adopted tracker has no recording
// state: it answers reads only.
func Adopt(words, bytesPerWord int, segs [][]Seg) (*Tracker, error) {
	if words <= 0 || bytesPerWord <= 0 || len(segs) != words*bytesPerWord {
		return nil, fmt.Errorf("lifetime: inconsistent adoption (%d words x %d bytes, %d slots)",
			words, bytesPerWord, len(segs))
	}
	return &Tracker{words: words, bytesPerWord: bytesPerWord, segs: segs, finished: true}, nil
}
