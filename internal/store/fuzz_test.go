package store

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mbavf/internal/dataflow"
	"mbavf/internal/lifetime"
	"mbavf/internal/sim"
	"mbavf/internal/store/mem"
)

// tinyMeasurements hand-builds the smallest valid artifact content: a
// 1x1x1B L1 and L2, a 1-thread 1-register VGPR, and a 2-version graph.
// Fuzzing mutates this ~100-byte seed thousands of times faster than the
// half-megabyte simulated one.
func tinyMeasurements(f *testing.F) *sim.Measurements {
	f.Helper()
	g, err := dataflow.Adopt(dataflow.Snapshot{
		Live:     []uint32{0, 1},
		LastRead: []uint64{0, 7},
		EverRead: []bool{false, true},
	})
	if err != nil {
		f.Fatal(err)
	}
	seg := []lifetime.Seg{{Start: 1, End: 5, Kind: lifetime.SegACE, Version: 1}}
	l1, err := lifetime.Adopt(1, 1, [][]lifetime.Seg{seg})
	if err != nil {
		f.Fatal(err)
	}
	l2, err := lifetime.Adopt(1, 1, [][]lifetime.Seg{{}})
	if err != nil {
		f.Fatal(err)
	}
	vgpr, err := lifetime.Adopt(1, 4, [][]lifetime.Seg{seg, {}, {}, {}})
	if err != nil {
		f.Fatal(err)
	}
	return &sim.Measurements{
		Workload: "tiny", ConfigFP: "fp", Cycles: 10, Instructions: 3,
		L1Sets: 1, L1Ways: 1, L2Sets: 1, L2Ways: 1, LineBytes: 1,
		VGPRThreads: 1, VGPRRegs: 1,
		L1Tracker: l1, L2Tracker: l2, VGPRTracker: vgpr, Graph: g,
	}
}

// FuzzStoreRoundTrip drives the artifact decoder with hostile bytes: it
// must never panic, never allocate unboundedly, and reject every invalid
// input with a typed error (ErrFormat or ErrCorrupt). Inputs that do
// decode must round-trip bit-identically through re-encoding — the
// store's "never silently analyze damage" contract, mechanized. Every
// input is also served by a ranged backend, so the framing walk over
// small remote reads and the per-fetch CRC checks see the same hostile
// bytes: that load must accept exactly what Decode accepts.
func FuzzStoreRoundTrip(f *testing.F) {
	// Seed with a genuine (tiny) artifact so the fuzzer starts from
	// valid framing and mutates inward past the CRCs, plus the classic
	// adversarial shapes.
	valid, err := EncodedBytes(tinyMeasurements(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MBAV"))
	f.Add([]byte{'M', 'B', 'A', 'V', version})
	f.Add(append(bytes.Clone(valid[:len(valid)/2]), 0xff))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	const key = "0123456789abcdef0123456789abcdef"
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		b := mem.NewRanged()
		if err := b.Put(ctx, key, data); err != nil {
			t.Fatal(err)
		}
		var ranged *sim.Measurements
		a, rerr := NewStore(b).GetArtifact(ctx, key)
		if rerr == nil {
			ranged, rerr = a.Measurements()
		}
		if rerr != nil && !errors.Is(rerr, ErrFormat) && !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("untyped ranged load error: %v", rerr)
		}

		dec, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			if rerr == nil {
				t.Fatalf("ranged load accepted what Decode rejected (%v)", err)
			}
			return
		}
		if rerr != nil {
			t.Fatalf("ranged load rejected what Decode accepted: %v", rerr)
		}
		if !dec.Instrumented() {
			t.Fatal("decode returned uninstrumented measurements")
		}
		again, err := EncodedBytes(dec)
		if err != nil {
			t.Fatalf("re-encode of decoded artifact failed: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("decode/encode not bit-identical: %d in, %d out", len(data), len(again))
		}
		// The lightweight metadata path must agree with the full decode.
		pa, err := Parse(data)
		if err != nil {
			t.Fatalf("Parse rejected what Decode accepted: %v", err)
		}
		if meta := pa.Meta(); meta.Workload != dec.Workload || meta.Cycles != dec.Cycles {
			t.Fatalf("Parse disagrees with Decode: %+v vs %+v", meta, dec)
		}
		if a.Meta() != pa.Meta() {
			t.Fatalf("ranged load meta %+v, Parse meta %+v", a.Meta(), pa.Meta())
		}
		if re, err := EncodedBytes(ranged); err != nil || !bytes.Equal(re, data) {
			t.Fatalf("ranged load does not re-encode to its input: %v", err)
		}
	})
}
