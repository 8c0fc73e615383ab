package lifetime

import (
	"math/bits"

	"mbavf/internal/dataflow"
	"mbavf/internal/interval"
)

// State is the resolved ACEness of one byte slot during one segment:
// microarchitectural ACEness is byte-uniform, program liveness per bit.
type State struct {
	Uarch bool
	Live  uint8
}

// Resolve classifies segment s of byte b of its word against the solved
// dataflow graph g. An ACE segment is uarch-ACE. A pending segment is
// uarch-ACE only if its version is read after the eviction: the flip
// escapes to the next level and matters only if that value is consumed.
// A dead segment is neither. Liveness is resolved only for uarch-ACE
// segments, so a live bit is always uarch-ACE; it is byte b of the
// segment's version when wordVersions is set (register files, one
// version per word) and byte 0 of it otherwise (caches, one version per
// byte).
func (s Seg) Resolve(g *dataflow.Graph, wordVersions bool, b int) State {
	var st State
	switch s.Kind {
	case SegACE:
		st.Uarch = true
	case SegPending:
		st.Uarch = g.ReadAfter(s.Version, s.End)
	}
	if st.Uarch {
		if !wordVersions {
			b = 0
		}
		st.Live = g.LiveByte(s.Version, b)
	}
	return st
}

// Summary is what every analysis of one tracker against one graph and
// horizon needs and none changes: which words are ever uarch-ACE, and
// the whole-run single-bit ACE numerators.
type Summary struct {
	// BitUarch and BitLive are the uarch-ACE and live bit-cycles of the
	// whole structure, every segment clipped at the horizon.
	BitUarch, BitLive interval.Cycle
	// aceWords has bit w set when word w holds a uarch-ACE segment that
	// starts before the horizon.
	aceWords []uint64
}

// ACE reports whether word w is uarch-ACE at any cycle before the
// horizon. A word that is not can add nothing to any MB-AVF.
func (s *Summary) ACE(w int) bool { return s.aceWords[w>>6]>>(w&63)&1 != 0 }

// summaryKey identifies what a summary was resolved against.
type summaryKey struct {
	g            *dataflow.Graph
	wordVersions bool
	horizon      interval.Cycle
}

// Summary returns the tracker's ACE summary against the solved graph g
// under the given version granularity (see Seg.Resolve) and horizon. A
// finished tracker builds it once and keeps it: concurrent first callers
// wait on one build, and a call with another graph, granularity or
// horizon rebuilds and replaces it. An unfinished tracker can still
// grow, so it builds a fresh summary on every call and keeps none.
func (t *Tracker) Summary(g *dataflow.Graph, wordVersions bool, horizon interval.Cycle) *Summary {
	if !t.finished {
		return t.summarize(g, wordVersions, horizon)
	}
	k := summaryKey{g, wordVersions, horizon}
	t.sumMu.Lock()
	defer t.sumMu.Unlock()
	if t.sum == nil || t.sumKey != k {
		t.sum, t.sumKey = t.summarize(g, wordVersions, horizon), k
	}
	return t.sum
}

// summarize resolves every segment once.
func (t *Tracker) summarize(g *dataflow.Graph, wordVersions bool, horizon interval.Cycle) *Summary {
	t.ensureSealed()
	s := &Summary{aceWords: make([]uint64, (t.words+63)/64)}
	for i, segs := range t.segs {
		w, b := i/t.bytesPerWord, i%t.bytesPerWord
		for _, sg := range segs {
			end := min(sg.End, horizon)
			if end <= sg.Start {
				continue
			}
			st := sg.Resolve(g, wordVersions, b)
			if !st.Uarch {
				continue
			}
			s.BitUarch += 8 * (end - sg.Start)
			s.BitLive += interval.Cycle(bits.OnesCount8(st.Live)) * (end - sg.Start)
			s.aceWords[w>>6] |= 1 << (w & 63)
		}
	}
	return s
}
