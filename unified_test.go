package mbavf

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mbavf/internal/faultrate"
)

// TestUnifiedAVFEquivalence pins the API redesign's compatibility
// contract: the deprecated per-structure entry points and the unified
// Run.AVF produce bit-identical numbers for every structure, scheme and
// interleaving style.
func TestUnifiedAVFEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full workload; skipped in -short (the -race CI leg)")
	}
	r := minife(t)
	// (factor, mode) pairs sample the interleaving/fault-mode plane; the
	// full cross product adds minutes without adding coverage (the scheme
	// and style change the analyzer's reaction model and layout, which is
	// what the grid covers; factor/mode only scale the geometry).
	points := []struct{ factor, mode int }{{1, 2}, {2, 2}, {4, 4}}
	schemes := Schemes()
	for _, st := range Structures() {
		for _, scheme := range schemes {
			for _, style := range st.Styles() {
				for _, p := range points {
					il := Interleaving{Style: style, Factor: p.factor}
					got, err := r.AVF(st, scheme, il, p.mode)
					if err != nil {
						t.Fatalf("AVF(%s,%s,%s,x%d,%d): %v", st, scheme, style, p.factor, p.mode, err)
					}
					var want AVF
					switch st {
					case L1:
						want, err = r.L1AVF(scheme, il, p.mode)
					case L2:
						want, err = r.L2AVF(scheme, il, p.mode)
					case VGPR:
						want, err = r.VGPRAVF(scheme, il, p.mode)
					}
					if err != nil {
						t.Fatalf("legacy %s: %v", st, err)
					}
					if got != want {
						t.Errorf("AVF(%s,%s,%s,x%d,%d) = %+v, legacy = %+v", st, scheme, style, p.factor, p.mode, got, want)
					}
				}
			}
		}
	}
}

func TestUnifiedSeriesEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full workload; skipped in -short (the -race CI leg)")
	}
	r := minife(t)
	il := Interleaving{Style: StyleLogical, Factor: 2}
	got, err := r.AVFSeries(L1, SECDED, il, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.L1AVFSeries(SECDED, il, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AVFSeries(L1) = %+v, legacy = %+v", got, want)
	}

	vil := Interleaving{Style: StyleIntraThread, Factor: 2}
	got, err = r.AVFSeries(VGPR, Parity, vil, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err = r.VGPRAVFSeries(Parity, vil, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AVFSeries(VGPR) = %+v, legacy = %+v", got, want)
	}
}

// TestUnifiedSEREquivalence pins Run.SER, which solves its Table III
// modes as one batch, to the Table III roll-up of per-mode Run.AVF
// calls, each solving one mode alone — summed in the same order, so the
// two must be ==. The L1 and register-file points are also pinned to the
// per-group oracle in internal/core (TestRealWorkloadOracle).
func TestUnifiedSEREquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full workload; skipped in -short (the -race CI leg)")
	}
	r, err := RunWorkload("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range Structures() {
		for _, style := range st.Styles() {
			for _, scheme := range Schemes() {
				for _, factor := range []int{1, 2, 4} {
					il := Interleaving{Style: style, Factor: factor}
					got, err := r.SER(st, scheme, il)
					if err != nil {
						t.Fatalf("SER(%s,%s,%+v): %v", st, scheme, il, err)
					}
					var want SER
					for _, mr := range faultrate.TableIII() {
						avf, err := r.AVF(st, scheme, il, mr.Width)
						if err != nil {
							t.Fatalf("AVF(%s,%s,%+v,%d): %v", st, scheme, il, mr.Width, err)
						}
						want.SDC += faultrate.SER(mr.FIT, avf.SDC)
						want.DUE += faultrate.SER(mr.FIT, avf.TrueDUE+avf.FalseDUE)
					}
					if got != want {
						t.Errorf("SER(%s,%s,%+v) = %+v, per-mode roll-up = %+v", st, scheme, il, got, want)
					}
				}
			}
		}
	}
}

func TestParseStructure(t *testing.T) {
	for _, st := range Structures() {
		got, err := ParseStructure(string(st))
		if err != nil || got != st {
			t.Errorf("ParseStructure(%q) = %v, %v", st, got, err)
		}
	}
	if _, err := ParseStructure("tlb"); !errors.Is(err, ErrBadOption) {
		t.Errorf("ParseStructure(tlb) err = %v, want ErrBadOption", err)
	}
}

// TestBadOptionsNoRun pins the validation cases that need no simulated
// run, so they stay in the -race -short leg.
func TestBadOptionsNoRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"negative injections", ExperimentOptions{Injections: -1}.Validate()},
		{"negative workers", ExperimentOptions{Workers: -2}.Validate()},
	} {
		if !errors.Is(tc.err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, tc.err)
		}
	}
	if err := (ExperimentOptions{}).Validate(); err != nil {
		t.Errorf("zero options should validate: %v", err)
	}
}

// TestBadOptions pins the validation redesign: every malformed query is
// rejected with an error wrapping ErrBadOption instead of being silently
// coerced.
func TestBadOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full workload; skipped in -short (the -race CI leg)")
	}
	r := minife(t)
	cases := []struct {
		name string
		call func() error
	}{
		{"zero factor", func() error {
			_, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 0}, 2)
			return err
		}},
		{"zero mode bits", func() error {
			_, err := r.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 1}, 0)
			return err
		}},
		{"unknown scheme", func() error {
			_, err := r.AVF(L1, Scheme("hamming"), Interleaving{Style: StyleLogical, Factor: 1}, 2)
			return err
		}},
		{"unknown structure", func() error {
			_, err := r.AVF(Structure("tlb"), Parity, Interleaving{Style: StyleLogical, Factor: 1}, 2)
			return err
		}},
		{"zero series windows", func() error {
			_, err := r.AVFSeries(L1, Parity, Interleaving{Style: StyleLogical, Factor: 1}, 2, 0)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, err)
		}
	}
}

// TestGeometryMisfitsAreBadOptions pins the two query errors only the
// structure's geometry decides: an interleaving factor that does not
// divide the structure, and a fault mode wider than its wordlines. Both
// are the caller's, so every query path wraps them in ErrBadOption.
func TestGeometryMisfitsAreBadOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full workload; skipped in -short (the -race CI leg)")
	}
	r := minife(t)
	way8 := Interleaving{Style: StyleWayPhysical, Factor: 8} // the L1 has 4 ways
	way2 := Interleaving{Style: StyleWayPhysical, Factor: 2}
	cases := []struct {
		name string
		call func() error
	}{
		{"AVF factor", func() error { _, err := r.AVF(L1, Parity, way8, 2); return err }},
		{"AVFSeries factor", func() error { _, err := r.AVFSeries(L1, Parity, way8, 2, 4); return err }},
		{"SER factor", func() error { _, err := r.SER(L1, Parity, way8); return err }},
		{"PolicyAVF factor", func() error { _, err := r.PolicyAVF(L1, "parity", way8, 2, DefaultScrubInterval); return err }},
		{"AVF mode", func() error { _, err := r.AVF(L1, Parity, way2, 5000); return err }},
		{"AVFSeries mode", func() error { _, err := r.AVFSeries(L1, Parity, way2, 5000, 4); return err }},
		{"PolicyAVF mode", func() error { _, err := r.PolicyAVF(L1, "parity", way2, 5000, DefaultScrubInterval); return err }},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, err)
		}
	}
}

func TestRunWorkloadContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWorkloadContext(ctx, "minife"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run err = %v, want context.Canceled", err)
	}
}
