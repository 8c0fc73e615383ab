package mbavf

import (
	"errors"
	"fmt"

	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/interval"
	"mbavf/internal/policy"
)

// Policies lists the built-in protection policies in presentation order:
// the paper's plain parity/SEC-DED assumptions (report-on-detect, no
// temporal model), their report-on-use variants, and SEC-DED with
// temporal accumulation without and with a periodic scrubber.
func Policies() []string { return policy.Names() }

// DefaultScrubInterval is the scrub period, in cycles, the scrubbing
// policies use when the caller does not choose one.
const DefaultScrubInterval = policy.DefaultScrubInterval

// PolicyOutcome is the vulnerability of one (structure, policy,
// interleaving, fault mode) combination, alongside the plain-scheme
// baseline it deviates from.
type PolicyOutcome struct {
	// Policy is the evaluated policy's name.
	Policy string
	// AVF is the policy-adjusted vulnerability. For a degenerate policy
	// (report-on-detect, no temporal accumulation) it is bit-identical to
	// Run.AVF under the same scheme.
	AVF AVF
	// Baseline is the plain scheme's vulnerability (report-on-detect, no
	// temporal model) — the paper's Table 2 accounting for this scheme.
	Baseline AVF
	// DeltaDUE / DeltaSDC are AVF minus Baseline: what the policy's
	// reporting discipline and temporal exposure buy (negative) or cost
	// (positive) relative to the paper's assumptions.
	DeltaDUE float64
	DeltaSDC float64
	// AccumP is the temporal multi-event occupancy probability mixed into
	// AVF (0 when the policy has no temporal model).
	AccumP float64
	// Escalated reports that an escalated-by-one-flip solve contributed
	// to AVF.
	Escalated bool
}

// validateScrub checks the wire/flag form of a scrub interval: policies
// are always evaluated under an explicit positive period, so zero and
// negative values are caller errors rather than silent defaults.
func validateScrub(scrubInterval int64) error {
	if scrubInterval <= 0 {
		return fmt.Errorf("%w: scrub interval must be positive cycles (got %d)", ErrBadOption, scrubInterval)
	}
	return nil
}

// PolicyAVF evaluates a named protection policy over an Mx1 fault mode
// in the given structure: the policy's scheme is solved through the
// spatial fault-group sweep once, and the policy pass reclassifies the
// solved outcome under the policy's reporting discipline and
// scrub/temporal-accumulation model (at most one extra escalated-scheme
// solve, and no re-simulation). scrubInterval, in cycles, parameterizes
// the scrubbing policies and must be positive; unknown policy names and
// non-positive intervals return ErrBadOption.
func (r *Run) PolicyAVF(st Structure, policyName string, il Interleaving, modeBits int, scrubInterval int64) (PolicyOutcome, error) {
	if err := validateQuery(il, modeBits); err != nil {
		return PolicyOutcome{}, err
	}
	if err := validateScrub(scrubInterval); err != nil {
		return PolicyOutcome{}, err
	}
	pol, err := policy.Named(policyName, policy.Spec{ScrubInterval: interval.Cycle(scrubInterval)})
	if err != nil {
		return PolicyOutcome{}, badPolicyErr(err)
	}
	a, err := r.analyzerFor(st, il, modeBits)
	if err != nil {
		return PolicyOutcome{}, err
	}
	mode := bitgeom.Mx1(modeBits)
	base, err := a.Analyze(pol.Scheme, mode)
	if err != nil {
		return PolicyOutcome{}, err
	}
	env := policy.Env{TotalCycles: a.TotalCycles, DomainBits: a.Layout.DomainBits}
	out, err := pol.Evaluate(env, base, func(s ecc.Scheme) (*core.Result, error) {
		return a.Analyze(s, mode)
	})
	if err != nil {
		return PolicyOutcome{}, badPolicyErr(err)
	}
	baseline := fromResult(base)
	po := PolicyOutcome{
		Policy: policyName,
		AVF: AVF{
			DUE:       out.DUE,
			SDC:       out.SDC,
			TrueDUE:   out.TrueDUE,
			FalseDUE:  out.FalseDUE,
			SBAVF:     out.SBAVF,
			SBAVFLive: out.SBAVFLive,
			Groups:    base.Groups,
			Cycles:    base.TotalCycles,
		},
		Baseline:  baseline,
		DeltaDUE:  out.DUE - baseline.DUE,
		DeltaSDC:  out.SDC - baseline.SDC,
		AccumP:    out.AccumP,
		Escalated: out.Escalated,
	}
	return po, nil
}

// badPolicyErr maps the internal policy package's typed error onto the
// public ErrBadOption contract, so the serving layer's errors.Is-based
// status mapping treats a bad policy like any other bad query option.
func badPolicyErr(err error) error {
	if errors.Is(err, policy.ErrBadPolicy) {
		return fmt.Errorf("%w: %v", ErrBadOption, err)
	}
	return err
}
