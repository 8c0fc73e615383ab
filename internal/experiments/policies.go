package experiments

// The policies experiment: the protection-policy scenario engine swept
// over every bundled workload and every analyzable structure. Where
// Table 2 answers "what is the MB-AVF under the paper's fixed protection
// assumptions?", this sweep answers the serving tier's design question —
// which policy buys what, per structure, per workload — by evaluating
// each policy's reporting discipline and scrub/temporal-accumulation
// model on top of the same solved spatial fault-group outcomes.

import (
	"fmt"

	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/interval"
	"mbavf/internal/obs"
	"mbavf/internal/policy"
	"mbavf/internal/report"
	"mbavf/internal/workloads"
)

// Per-sweep observability: how many policy cells the experiment emitted
// and the mean absolute DUE/SDC deviation from the plain-scheme baseline
// across the whole sweep (a quick health signal that the policy engine
// is actually differentiating scenarios).
var (
	obsPolicyCells    = obs.NewCounter("policy.exp.cells")
	obsPolicyMeanDDUE = obs.NewFloatGauge("policy.exp.mean_abs_due_delta")
	obsPolicyMeanDSDC = obs.NewFloatGauge("policy.exp.mean_abs_sdc_delta")
)

// policyWorkloads is the sweep's benchmark set: unlike the paper-figure
// experiments (which drop the degenerate quickstart), the policy sweep
// covers every bundled workload — the scenario engine serves arbitrary
// queries, so its table should too.
func policyWorkloads(o Options) []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workloads.Names()
}

func policyNames(o Options) []string {
	if len(o.Policies) > 0 {
		return o.Policies
	}
	return policy.Names()
}

// policies sweeps the configured protection policies over all workloads
// and all three structures at the 4x1 fault mode over x2 physical
// interleaving — the regime where each protection domain sees two
// adjacent flips, so the schemes and disciplines genuinely diverge. Per
// structure it emits two tables: absolute DUE/SDC MB-AVFs per policy,
// and each policy's delta against its own plain-scheme report-on-detect
// baseline (the paper's accounting). Every (workload, structure, scheme)
// spatial solve happens once; policy passes reclassify it.
func policies(o Options) ([]*report.Table, error) {
	pols := make([]policy.Policy, 0, len(policyNames(o)))
	spec := policy.Spec{ScrubInterval: interval.Cycle(o.ScrubInterval)}
	for _, name := range policyNames(o) {
		p, err := policy.Named(name, spec)
		if err != nil {
			return nil, err
		}
		pols = append(pols, p)
	}

	// x2 physical interleaving: way-physical lines in the caches,
	// inter-thread registers in the register file.
	structures := []struct {
		name  analysis.Structure
		style analysis.Style
	}{
		{analysis.L1, analysis.WayPhysical},
		{analysis.L2, analysis.WayPhysical},
		{analysis.VGPR, analysis.InterThread},
	}

	mode := bitgeom.Mx1(4)
	var tables []*report.Table
	var sumDDUE, sumDSDC float64
	var cells int
	for _, st := range structures {
		headerAbs := []string{"workload"}
		headerDelta := []string{"workload"}
		for _, p := range pols {
			headerAbs = append(headerAbs, p.Name+" DUE", p.Name+" SDC")
			headerDelta = append(headerDelta, p.Name+" dDUE", p.Name+" dSDC")
		}
		abs := report.NewTable(
			fmt.Sprintf("Policies: %s DUE/SDC MB-AVF per protection policy (4x1 faults, x2 physical interleaving)", st.name),
			headerAbs...)
		abs.Caption = "Report-on-use converts false DUEs to masked; the temporal policies mix in an escalated-by-one-flip outcome at the accumulation probability; scrubbing bounds the accumulation window."
		delta := report.NewTable(
			fmt.Sprintf("Policies: %s deviation from plain-scheme report-on-detect baseline (policy minus baseline)", st.name),
			headerDelta...)
		delta.Caption = "Zero rows are the degenerate policies (the bit-identity anchor); negative dDUE is reporting deferred or avoided, positive dDUE/dSDC is temporal exposure."
		for _, wl := range policyWorkloads(o) {
			s, err := run(o, wl)
			if err != nil {
				return nil, err
			}
			an, err := analysis.Run{M: s}.Analyzer(st.name, st.style, 2)
			if err != nil {
				return nil, err
			}
			// One spatial solve per distinct scheme; policy passes share it.
			solved := map[string]*core.Result{}
			solve := func(s ecc.Scheme) (*core.Result, error) {
				if r, ok := solved[s.Name()]; ok {
					return r, nil
				}
				r, err := an.Analyze(s, mode)
				if err != nil {
					return nil, err
				}
				solved[s.Name()] = r
				return r, nil
			}
			env := policy.Env{TotalCycles: an.TotalCycles, DomainBits: an.Layout.DomainBits}
			rowAbs := []any{wl}
			rowDelta := []any{wl}
			for _, p := range pols {
				base, err := solve(p.Scheme)
				if err != nil {
					return nil, err
				}
				out, err := p.Evaluate(env, base, solve)
				if err != nil {
					return nil, err
				}
				baseline := policy.Classify(base, policy.ReportOnDetect)
				rowAbs = append(rowAbs, out.DUE, out.SDC)
				rowDelta = append(rowDelta, out.DUE-baseline.DUE, out.SDC-baseline.SDC)
				sumDDUE += absf(out.DUE - baseline.DUE)
				sumDSDC += absf(out.SDC - baseline.SDC)
				cells++
				obsPolicyCells.Add(1)
			}
			abs.AddRowf(rowAbs...)
			delta.AddRowf(rowDelta...)
		}
		tables = append(tables, abs, delta)
	}
	if cells > 0 {
		obsPolicyMeanDDUE.Set(sumDDUE / float64(cells))
		obsPolicyMeanDSDC.Set(sumDSDC / float64(cells))
	}
	return tables, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func init() {
	registerExp("policies", "Protection-policy scenario sweep (delayed reporting, scrubbing, temporal accumulation)", policies)
}
