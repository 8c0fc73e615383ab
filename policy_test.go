package mbavf

import (
	"errors"
	"sync"
	"testing"
)

// vecaddRun caches the instrumented vecadd run (the fastest bundled
// workload) shared by the policy facade tests.
var (
	vecaddOnce sync.Once
	vecaddR    *Run
	vecaddErr  error
)

func vecadd(t *testing.T) *Run {
	t.Helper()
	vecaddOnce.Do(func() {
		vecaddR, vecaddErr = RunWorkload("vecadd")
	})
	if vecaddErr != nil {
		t.Fatal(vecaddErr)
	}
	return vecaddR
}

// hugeScrub stands in for "scrub interval -> infinity": far beyond any
// simulated run length, so scrubbing can never bound the window.
const hugeScrub = int64(1) << 62

// structILs pairs every structure with one physical interleaving layout
// (the VGPR one exercises the detection-preempts-SDC rule).
func structILs() []struct {
	st Structure
	il Interleaving
} {
	return []struct {
		st Structure
		il Interleaving
	}{
		{L1, Interleaving{Style: StyleWayPhysical, Factor: 2}},
		{L2, Interleaving{Style: StyleWayPhysical, Factor: 2}},
		{VGPR, Interleaving{Style: StyleInterThread, Factor: 2}},
	}
}

// TestPolicyLimitEquivalence is the limit-equivalence property suite:
// with the scrub interval at infinity and report-on-detect reporting,
// the degenerate policies must reproduce the existing parity/SEC-DED
// DUE/SDC numbers bit-identically (==) for every structure and every
// Table III fault mode. The same points are pinned to the per-group
// oracle in internal/core (TestRealWorkloadOracle).
func TestPolicyLimitEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a workload; skipped in -short (the -race CI leg)")
	}
	r := vecadd(t)
	degenerate := []struct {
		policy string
		scheme Scheme
	}{
		{"parity", Parity},
		{"sec-ded", SECDED},
	}
	t.Run("packed", func(t *testing.T) {
		for _, si := range structILs() {
			for mode := 1; mode <= 8; mode++ {
				for _, d := range degenerate {
					want, err := r.AVF(si.st, d.scheme, si.il, mode)
					if err != nil {
						t.Fatalf("AVF(%s,%s,%d): %v", si.st, d.scheme, mode, err)
					}
					got, err := r.PolicyAVF(si.st, d.policy, si.il, mode, hugeScrub)
					if err != nil {
						t.Fatalf("PolicyAVF(%s,%s,%d): %v", si.st, d.policy, mode, err)
					}
					if got.AVF != want {
						t.Errorf("%s/%s mode %d: policy AVF = %+v, want bit-identical %+v",
							si.st, d.policy, mode, got.AVF, want)
					}
					if got.Baseline != want {
						t.Errorf("%s/%s mode %d: baseline = %+v, want %+v",
							si.st, d.policy, mode, got.Baseline, want)
					}
					if got.DeltaDUE != 0 || got.DeltaSDC != 0 || got.AccumP != 0 || got.Escalated {
						t.Errorf("%s/%s mode %d: degenerate policy must have zero deltas: %+v",
							si.st, d.policy, mode, got)
					}
				}
			}
		}
	})
}

// TestPolicyReportOnUse pins the delayed-reporting discipline against
// the four-class model: DUE collapses to the true-DUE component, false
// DUEs are masked, SDC is untouched.
func TestPolicyReportOnUse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a workload; skipped in -short (the -race CI leg)")
	}
	r := vecadd(t)
	for _, si := range structILs() {
		for _, mode := range []int{2, 4} {
			avf, err := r.AVF(si.st, SECDED, si.il, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.PolicyAVF(si.st, "sec-ded-on-use", si.il, mode, hugeScrub)
			if err != nil {
				t.Fatal(err)
			}
			if got.AVF.DUE != avf.TrueDUE {
				t.Errorf("%s mode %d: on-use DUE = %g, want true-DUE %g", si.st, mode, got.AVF.DUE, avf.TrueDUE)
			}
			if got.AVF.FalseDUE != 0 {
				t.Errorf("%s mode %d: on-use FalseDUE = %g, want 0", si.st, mode, got.AVF.FalseDUE)
			}
			if got.AVF.SDC != avf.SDC {
				t.Errorf("%s mode %d: on-use SDC = %g, want unchanged %g", si.st, mode, got.AVF.SDC, avf.SDC)
			}
			if got.DeltaDUE != avf.TrueDUE-avf.DUE {
				t.Errorf("%s mode %d: DeltaDUE = %g, want %g", si.st, mode, got.DeltaDUE, avf.TrueDUE-avf.DUE)
			}
		}
	}
}

// TestPolicyTemporalScrub pins the temporal-accumulation interplay on a
// real run: the scrub policy's accumulation probability is bounded by
// the scrub interval, the no-scrub temporal policy's by the run length,
// and the mixed outcomes stay within [base, escalated] bounds.
func TestPolicyTemporalScrub(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a workload; skipped in -short (the -race CI leg)")
	}
	r := vecadd(t)
	il := Interleaving{Style: StyleWayPhysical, Factor: 2}
	noScrub, err := r.PolicyAVF(L1, "sec-ded-temporal", il, 4, hugeScrub)
	if err != nil {
		t.Fatal(err)
	}
	scrubbed, err := r.PolicyAVF(L1, "sec-ded-scrub", il, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !noScrub.Escalated || !scrubbed.Escalated {
		t.Fatalf("temporal policies must mix an escalated outcome: %+v / %+v", noScrub, scrubbed)
	}
	if noScrub.AccumP <= 0 || noScrub.AccumP >= 1 {
		t.Errorf("accumulation probability out of range: %g", noScrub.AccumP)
	}
	if scrubbed.AccumP >= noScrub.AccumP {
		t.Errorf("scrubbing must cut the accumulation probability: %g >= %g", scrubbed.AccumP, noScrub.AccumP)
	}
	// Escalation can only hurt SEC-DED here (2 flips detected -> 3 flips
	// defeated), so deltas are non-negative and ordered by exposure.
	if noScrub.DeltaSDC < 0 || scrubbed.DeltaSDC < 0 {
		t.Errorf("escalated SEC-DED must not reduce SDC: %g / %g", noScrub.DeltaSDC, scrubbed.DeltaSDC)
	}
	if scrubbed.DeltaSDC > noScrub.DeltaSDC {
		t.Errorf("scrubbed exposure should not exceed unscrubbed: %g > %g", scrubbed.DeltaSDC, noScrub.DeltaSDC)
	}
}

// TestPolicyBadOptions pins the typed-error contract of the policy knobs
// that need no simulated run.
func TestPolicyBadOptionsNoRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"negative scrub interval", ExperimentOptions{ScrubInterval: -1}.Validate()},
		{"unknown policy name", ExperimentOptions{Policies: []string{"chipkill"}}.Validate()},
	} {
		if !errors.Is(tc.err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, tc.err)
		}
	}
	if err := (ExperimentOptions{Policies: []string{"sec-ded-scrub"}, ScrubInterval: 4096}).Validate(); err != nil {
		t.Errorf("valid policy options rejected: %v", err)
	}
	if len(Policies()) < 4 {
		t.Fatalf("Policies() = %v, want at least the 4 required policies", Policies())
	}
}

// TestPolicyBadOptions pins ErrBadOption on the query path.
func TestPolicyBadOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a workload; skipped in -short (the -race CI leg)")
	}
	r := vecadd(t)
	il := Interleaving{Style: StyleWayPhysical, Factor: 2}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"zero scrub interval", func() error {
			_, err := r.PolicyAVF(L1, "sec-ded", il, 2, 0)
			return err
		}},
		{"negative scrub interval", func() error {
			_, err := r.PolicyAVF(L1, "sec-ded", il, 2, -4096)
			return err
		}},
		{"unknown policy", func() error {
			_, err := r.PolicyAVF(L1, "chipkill", il, 2, hugeScrub)
			return err
		}},
		{"zero factor", func() error {
			_, err := r.PolicyAVF(L1, "sec-ded", Interleaving{Style: StyleWayPhysical, Factor: 0}, 2, hugeScrub)
			return err
		}},
		{"bad style for structure", func() error {
			_, err := r.PolicyAVF(VGPR, "sec-ded", il, 2, hugeScrub)
			return err
		}},
	} {
		if err := tc.call(); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, err)
		}
	}
}
