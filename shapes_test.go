package mbavf

// TestPaperShapes is the paper-shape regression suite: every qualitative
// claim listed under "Expected shape" in DESIGN.md §4, asserted on a
// reduced workload set through the public API. It is a tier-2 test —
// skipped in -short (the -race CI leg) because each workload needs a
// full instrumented simulation — and exists so a refactor of the engine,
// the interleaver, or the ECC reaction model cannot silently bend the
// physics the paper predicts.

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
)

// shapeWorkloads is the reduced benchmark set: one FEM solver, one dense
// kernel, one stencil — enough access-pattern diversity to exercise every
// invariant without simulating the full suite.
var shapeWorkloads = []string{"minife", "matmul", "srad"}

var (
	shapeOnce sync.Once
	shapeRuns map[string]*Run
	shapeErr  error
)

// shapeRun returns the cached instrumented run of one shape workload.
func shapeRun(t *testing.T, name string) *Run {
	t.Helper()
	shapeOnce.Do(func() {
		shapeRuns = make(map[string]*Run, len(shapeWorkloads))
		for _, n := range shapeWorkloads {
			r, err := RunWorkload(n)
			if err != nil {
				shapeErr = fmt.Errorf("%s: %w", n, err)
				return
			}
			shapeRuns[n] = r
		}
	})
	if shapeErr != nil {
		t.Fatal(shapeErr)
	}
	return shapeRuns[name]
}

// l1Solver answers one L1 query of the shape suite.
type l1Solver func(t *testing.T, r *Run, scheme Scheme, style Style, factor, modeBits int) AVF

// l1avf is the packed leg's solver: the public API, which runs the
// packed band sweep.
func l1avf(t *testing.T, r *Run, scheme Scheme, style Style, factor, modeBits int) AVF {
	t.Helper()
	avf, err := r.L1AVF(scheme, Interleaving{Style: style, Factor: factor}, modeBits)
	if err != nil {
		t.Fatal(err)
	}
	return avf
}

// scalarSpan is one uarch-ACE lifetime segment of one byte slot, clipped
// to the run, with the live mask of its eight bits.
type scalarSpan struct {
	start, end interval.Cycle
	live       uint8
}

// scalarL1AVF is the scalar leg's solver: the model as the paper states
// it, one fault group at a time. Each group walks the merged timeline of
// its bits; at every span, each region (the group's bits in one
// protection domain) reacts to its bit count under the scheme, and the
// group takes the four-class outcome of its regions. It shares no code
// with the packed band sweep behind Run.AVF. The L1 never applies the
// detection-preempts-SDC rule, so the walk leaves it out.
func scalarL1AVF(t *testing.T, r *Run, scheme Scheme, style Style, factor, modeBits int) AVF {
	t.Helper()
	a, err := r.analyzerFor(L1, Interleaving{Style: style, Factor: factor}, modeBits)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := scheme.impl()
	if err != nil {
		t.Fatal(err)
	}
	mode, geom := bitgeom.Mx1(modeBits), a.Layout.Geom
	res := core.Result{Groups: geom.GroupCount(mode), Bits: geom.Bits(), TotalCycles: a.TotalCycles}

	// The uarch-ACE spans of every byte slot, which also sum the SB-AVF
	// numerators. A dead or never-read segment leaves a gap.
	bpw := a.Tracker.BytesPerWord()
	spans := make([][]scalarSpan, a.Tracker.Words()*bpw)
	for w := 0; w < a.Tracker.Words(); w++ {
		for b := 0; b < bpw; b++ {
			for _, seg := range a.Tracker.Segments(w, b) {
				end := min(seg.End, a.TotalCycles)
				ace := seg.Kind == lifetime.SegACE ||
					seg.Kind == lifetime.SegPending && a.Graph.ReadAfter(seg.Version, seg.End)
				if end <= seg.Start || !ace {
					continue
				}
				vb := 0
				if a.WordVersions {
					vb = b
				}
				sp := scalarSpan{start: seg.Start, end: end, live: a.Graph.LiveByte(seg.Version, vb)}
				res.BitUarch += 8 * (end - sp.start)
				res.BitLive += interval.Cycle(bits.OnesCount8(sp.live)) * (end - sp.start)
				spans[w*bpw+b] = append(spans[w*bpw+b], sp)
			}
		}
	}

	type member struct {
		spans  []scalarSpan
		mask   uint8
		region int
	}
	var (
		pos       []bitgeom.BitPos
		members   []member
		reactions []ecc.Reaction
	)
	for gi := 0; gi < res.Groups; gi++ {
		pos = geom.GroupBits(mode, gi, pos[:0])
		members, reactions = members[:0], reactions[:0]
		regionOf := map[int]int{}
		var nbits []int
		for _, p := range pos {
			wb, dom := a.Layout.Map(p)
			ri, ok := regionOf[dom]
			if !ok {
				ri = len(nbits)
				regionOf[dom] = ri
				nbits = append(nbits, 0)
			}
			nbits[ri]++
			members = append(members, member{spans: spans[wb.Word*bpw+wb.Bit/8], mask: 1 << (wb.Bit % 8), region: ri})
		}
		for _, n := range nbits {
			reactions = append(reactions, impl.React(n))
		}
		uarch, live := make([]bool, len(nbits)), make([]bool, len(nbits))
		for now := interval.Cycle(0); now < a.TotalCycles; {
			next := a.TotalCycles
			clear(uarch)
			clear(live)
			for i := range members {
				m := &members[i]
				for len(m.spans) > 0 && m.spans[0].end <= now {
					m.spans = m.spans[1:]
				}
				switch {
				case len(m.spans) == 0:
				case now < m.spans[0].start:
					next = min(next, m.spans[0].start)
				default:
					next = min(next, m.spans[0].end)
					uarch[m.region] = true
					live[m.region] = live[m.region] || m.spans[0].live&m.mask != 0
				}
			}
			var detected, trueDUE, sdc bool
			for ri, re := range reactions {
				switch re {
				case ecc.ReactDetected:
					detected = detected || uarch[ri]
					trueDUE = trueDUE || live[ri]
				case ecc.ReactUndetected:
					sdc = sdc || live[ri]
				}
			}
			span := next - now
			if detected {
				res.Counters.DUE += span
			}
			switch {
			case sdc:
				res.Counters.SDC += span
			case trueDUE:
				res.Counters.TrueDUE += span
			case detected:
				res.Counters.FalseDUE += span
			}
			now = next
		}
	}
	return fromResult(&res)
}

func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape suite simulates full workloads; skipped in -short (the -race CI leg)")
	}

	// Every shape must hold on two independent evaluations of the model:
	// the packed band sweep, the one production solver, and the scalar
	// per-group walk of scalarL1AVF. The workload runs are cached
	// (shapeRun), so the second pass costs only re-analysis. The packed
	// solver's identity (==) with the per-group oracle on these points is
	// pinned in internal/core (TestRealWorkloadOracle).
	t.Run("packed", func(t *testing.T) { paperShapes(t, l1avf) })
	t.Run("scalar", func(t *testing.T) { paperShapes(t, scalarL1AVF) })
}

func paperShapes(t *testing.T, l1avf l1Solver) {
	// MB-AVF ∈ [1x, Mx] SB-AVF: an Mx1 fault group is ACE when any of its
	// M bits is ACE, so with full detection (interleave degree M under
	// parity leaves one bit per domain) the group-level AVF is bounded by
	// the single-bit AVF on one side and M times it on the other.
	t.Run("mbavf-within-sb-bounds", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			for _, m := range []int{2, 4} {
				for _, style := range []Style{StyleLogical, StyleWayPhysical} {
					avf := l1avf(t, r, Parity, style, m, m)
					if avf.SBAVF <= 0 {
						t.Fatalf("%s: SB-AVF = %v, want > 0", name, avf.SBAVF)
					}
					// The upper bound carries a hair of slack: edge rows of
					// the physical geometry yield slightly fewer than
					// Bits/M fault groups, so the two AVFs' denominators
					// differ by a sub-0.1% factor.
					ratio := avf.DUE / avf.SBAVF
					if ratio < 1-1e-9 || ratio > float64(m)*1.001 {
						t.Errorf("%s %s %dx1: MB-AVF/SB-AVF = %v outside [1, %d]",
							name, style, m, ratio, m)
					}
				}
			}
		}
	})

	// Logical interleaving spreads each fault group across the bits of one
	// logical word, maximizing ACE locality — it must yield the lowest
	// MB-AVF of the three cache layouts (Figure 4).
	t.Run("logical-interleaving-lowest", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			logical := l1avf(t, r, Parity, StyleLogical, 2, 2).DUE
			way := l1avf(t, r, Parity, StyleWayPhysical, 2, 2).DUE
			idx := l1avf(t, r, Parity, StyleIndexPhysical, 2, 2).DUE
			if logical > way+1e-9 || logical > idx+1e-9 {
				t.Errorf("%s: logical %v should be lowest (way %v, index %v)",
					name, logical, way, idx)
			}
		}
	})

	// A larger fault mode covers a superset of bits per group, so the
	// group-ACE union — and with it the MB-AVF — can only grow with mode
	// size (Figure 6's rising curves).
	t.Run("monotone-in-mode-size", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			prev := -1.0
			for _, m := range []int{2, 3, 4} {
				due := l1avf(t, r, Parity, StyleWayPhysical, 4, m).DUE
				if due < prev-1e-9 {
					t.Errorf("%s: DUE MB-AVF fell from %v to %v at %dx1", name, prev, due, m)
				}
				prev = due
			}
		}
	})

	// Under SEC-DED with x2 interleaving, 6x1 is the first mode whose
	// regions (3 bits) all defeat detection; growing to 8x1 adds bits to
	// already-undetected groups, so the SDC MB-AVF plateaus (Figure 9).
	t.Run("sdc-plateau-6x1-to-8x1", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			sdc6 := l1avf(t, r, SECDED, StyleWayPhysical, 2, 6).SDC
			sdc8 := l1avf(t, r, SECDED, StyleWayPhysical, 2, 8).SDC
			if sdc6 <= 0 {
				t.Fatalf("%s: 6x1 SEC-DED x2 SDC = %v, want > 0", name, sdc6)
			}
			if ratio := sdc8 / sdc6; ratio < 0.75 || ratio > 1.5 {
				t.Errorf("%s: SDC should plateau 6x1 (%v) -> 8x1 (%v), ratio %v",
					name, sdc6, sdc8, ratio)
			}
		}
	})

	// Section VI-C equivalence at interleave degree 1: SEC-DED absorbs one
	// bit of the fault (correction), so Mx1 under SEC-DED reacts like
	// (M-1)x1 under parity. Detected case: 2x1 SEC-DED ≈ 1x1 parity.
	// Undetected case: 3x1 SEC-DED and 2x1 parity both defeat detection,
	// so both DUE MB-AVFs must vanish exactly.
	t.Run("secded-m-equals-parity-m-minus-1", func(t *testing.T) {
		for _, name := range shapeWorkloads {
			r := shapeRun(t, name)
			s2 := l1avf(t, r, SECDED, StyleWayPhysical, 1, 2).DUE
			p1 := l1avf(t, r, Parity, StyleWayPhysical, 1, 1).DUE
			if p1 <= 0 {
				t.Fatalf("%s: 1x1 parity DUE = %v, want > 0", name, p1)
			}
			if ratio := s2 / p1; ratio < 0.9 || ratio > 1.1 {
				t.Errorf("%s: 2x1 SEC-DED (%v) should match 1x1 parity (%v), ratio %v",
					name, s2, p1, ratio)
			}
			s3 := l1avf(t, r, SECDED, StyleWayPhysical, 1, 3).DUE
			p2 := l1avf(t, r, Parity, StyleWayPhysical, 1, 2).DUE
			if s3 != 0 || p2 != 0 {
				t.Errorf("%s: undetected modes must have zero DUE: 3x1 SEC-DED = %v, 2x1 parity = %v",
					name, s3, p2)
			}
		}
	})
}
