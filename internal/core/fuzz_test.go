package core

// FuzzPackedTimeline drives a lifetime tracker with an arbitrary event
// stream decoded from fuzz bytes and checks the two properties the
// packed solver rests on:
//
//  1. packed<->segment round trip: lifetime.Pack followed by Unpack
//     reproduces the tracker's timelines clamped to the horizon (also
//     exercised at a shorter horizon so clamping paths run);
//  2. solver agreement: every (scheme, mode) query of one batched packed
//     sweep produces a Result identical to the scalar solver's for the
//     fuzzed timeline.

import (
	"bytes"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/dataflow"
	"mbavf/internal/ecc"
	"mbavf/internal/interleave"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
)

// clampSegs normalizes a timeline the way Pack documents: empty and
// at-or-beyond-horizon segments dropped, straddlers clamped.
func clampSegs(segs []lifetime.Seg, horizon interval.Cycle) []lifetime.Seg {
	var out []lifetime.Seg
	for _, sg := range segs {
		if sg.End <= sg.Start || sg.Start >= horizon {
			continue
		}
		if sg.End > horizon {
			sg.End = horizon
		}
		out = append(out, sg)
	}
	return out
}

func segsEqual(a, b []lifetime.Seg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkRoundTrip(t *testing.T, slots [][]lifetime.Seg, horizon interval.Cycle) {
	t.Helper()
	p := lifetime.PackSlots(slots, horizon)
	if p.Spans() == 0 {
		t.Fatalf("horizon %d: packed stream has no spans", horizon)
	}
	if start, _ := p.Span(0); start != 0 {
		t.Fatalf("horizon %d: first span starts at %d, want 0", horizon, start)
	}
	prev := interval.Cycle(0)
	for i := 0; i < p.Spans(); i++ {
		start, end := p.Span(i)
		if start != prev {
			t.Fatalf("horizon %d: span %d starts at %d, want contiguous %d", horizon, i, start, prev)
		}
		if end < start {
			t.Fatalf("horizon %d: span %d is negative [%d,%d)", horizon, i, start, end)
		}
		prev = end
	}
	if prev != horizon {
		t.Fatalf("horizon %d: spans end at %d, want horizon", horizon, prev)
	}
	unpacked := p.Unpack()
	for s := range slots {
		want := clampSegs(slots[s], horizon)
		if !segsEqual(unpacked[s], want) {
			t.Fatalf("horizon %d slot %d: round trip mismatch\n got %+v\nwant %+v", horizon, s, unpacked[s], want)
		}
	}
}

func FuzzPackedTimeline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 1, 1, 3, 0, 2, 9, 2, 0, 4, 3, 3, 200, 1, 2, 2})
	f.Add(bytes.Repeat([]byte{7, 1, 2, 0, 0, 3}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			words   = 2
			bpw     = 2
			horizon = interval.Cycle(96)
		)
		lay, err := interleave.Logical(words, bpw*8, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr := lifetime.NewTracker(words, bpw)
		g := dataflow.NewGraph()
		// Decode (slot, op, dt) triples; per-slot clocks stay monotonic.
		clock := make([]interval.Cycle, words*bpw)
		held := make([]bool, words*bpw)
		ops := len(data) / 3
		if ops > 256 {
			ops = 256
		}
		for i := 0; i < ops; i++ {
			slot := int(data[3*i]) % (words * bpw)
			op := data[3*i+1]
			clock[slot] += interval.Cycle(data[3*i+2]%13) + 1
			w, b := slot/bpw, slot%bpw
			switch op % 4 {
			case 0:
				v := g.New(dataflow.TransferNone, 0)
				g.MarkRootLive(v, uint32(op)*2654435761)
				if op&4 != 0 {
					g.NoteRead(v, clock[slot]+interval.Cycle(op%32))
				}
				tr.Open(w, b, clock[slot], v)
				held[slot] = true
			case 1:
				if held[slot] {
					tr.Read(w, b, clock[slot])
				}
			case 2:
				if held[slot] {
					tr.CloseClean(w, b, clock[slot])
					held[slot] = false
				}
			default:
				if held[slot] {
					tr.CloseDirty(w, b, clock[slot])
					held[slot] = false
				}
			}
		}
		tr.Finish(horizon)
		g.Solve()

		var slots [][]lifetime.Seg
		for w := 0; w < words; w++ {
			for b := 0; b < bpw; b++ {
				slots = append(slots, tr.Segments(w, b))
			}
		}
		checkRoundTrip(t, slots, horizon)
		checkRoundTrip(t, slots, horizon/2) // exercises clamping
		checkRoundTrip(t, slots, 1)

		a := &Analyzer{
			Layout:               lay,
			Tracker:              tr,
			Graph:                g,
			TotalCycles:          horizon,
			DetectionPreemptsSDC: len(data)%2 == 0,
		}
		// Every scheme x mode as one batch: each query must match the
		// scalar oracle.
		var batch []Query
		for _, scheme := range []ecc.Scheme{ecc.None{}, ecc.Parity{}, ecc.SECDED{}} {
			for m := 1; m <= 4; m++ {
				batch = append(batch, Query{Scheme: scheme, Mode: bitgeom.Mx1(m)})
			}
		}
		packed, err := a.AnalyzeMany(0, batch)
		if err != nil {
			t.Fatal(err)
		}
		a.ScalarSolve = true
		for i, q := range batch {
			scalar, err := a.Analyze(q.Scheme, q.Mode)
			if err != nil {
				t.Fatal(err)
			}
			if packed[i].Total != *scalar {
				t.Fatalf("scheme %s mode %s: solver mismatch\npacked %+v\nscalar %+v",
					q.Scheme.Name(), q.Mode.Name(), packed[i].Total, *scalar)
			}
		}
	})
}
