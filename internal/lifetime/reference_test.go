package lifetime

import (
	"mbavf/internal/dataflow"
	"mbavf/internal/interval"
)

// refTracker is the test oracle for Tracker: the straightforward
// recorder that appends each closed segment to its own slot's slice.
// The paged log and sealed arena must reproduce its segments exactly.
type refTracker struct {
	words, bytesPerWord int
	segs                [][]Seg
	held                []bool
	version             []dataflow.VersionID
	start               []interval.Cycle
}

func newRefTracker(words, bytesPerWord int) *refTracker {
	n := words * bytesPerWord
	return &refTracker{
		words:        words,
		bytesPerWord: bytesPerWord,
		segs:         make([][]Seg, n),
		held:         make([]bool, n),
		version:      make([]dataflow.VersionID, n),
		start:        make([]interval.Cycle, n),
	}
}

func (t *refTracker) close(i int, cycle interval.Cycle, kind SegKind) {
	if !t.held[i] {
		return
	}
	if cycle > t.start[i] {
		t.segs[i] = append(t.segs[i], Seg{Start: t.start[i], End: cycle, Kind: kind, Version: t.version[i]})
	}
	t.start[i] = cycle
}

func (t *refTracker) Open(word, b int, cycle interval.Cycle, ver dataflow.VersionID) {
	i := word*t.bytesPerWord + b
	t.close(i, cycle, SegDead)
	t.held[i] = true
	t.version[i] = ver
	t.start[i] = cycle
}

func (t *refTracker) Read(word, b int, cycle interval.Cycle) {
	t.close(word*t.bytesPerWord+b, cycle, SegACE)
}

func (t *refTracker) CloseClean(word, b int, cycle interval.Cycle) {
	i := word*t.bytesPerWord + b
	t.close(i, cycle, SegDead)
	t.held[i] = false
}

func (t *refTracker) CloseDirty(word, b int, cycle interval.Cycle) {
	i := word*t.bytesPerWord + b
	t.close(i, cycle, SegPending)
	t.held[i] = false
}

func (t *refTracker) Finish(end interval.Cycle) {
	for i := range t.held {
		if t.held[i] {
			t.close(i, end, SegDead)
			t.held[i] = false
		}
	}
}

func (t *refTracker) Segments(word, b int) []Seg { return t.segs[word*t.bytesPerWord+b] }

func (t *refTracker) SegmentCount() int {
	n := 0
	for _, s := range t.segs {
		n += len(s)
	}
	return n
}
