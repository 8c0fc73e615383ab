package experiments

import (
	"fmt"

	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/ecc"
	"mbavf/internal/inject"
	"mbavf/internal/report"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// validate cross-checks the ACE-analysis SDC AVF of the vector register
// file against a statistical fault-injection estimate of the same
// quantity — the Wang-vs-Biswas methodological debate the paper cites.
//
// The analysis side is the unprotected single-bit SDC AVF (program-live
// bit fraction). The injection side is the fraction of uniform random
// single-bit flips that corrupt program output; flips that trap (corrupted
// addresses) are reported separately, since ACE analysis conservatively
// counts address bits as ACE. ACE analysis is an upper bound, so
// analysis >= injection SDC must hold, and the gap measures the
// conservatism of the ACE assumptions.
func validate(o Options) ([]*report.Table, error) {
	t := report.NewTable("Validation: VGPR SDC AVF, ACE analysis vs statistical fault injection",
		"workload", "analysis SDC AVF", "inject SDC frac", "inject DUE frac", "inject SDC+DUE", "conservatism")
	t.Caption = fmt.Sprintf("Injection: %d uniform single-bit flips per workload. ACE analysis upper-bounds the injected SDC+DUE rate; the ratio is its conservatism.", o.Injections)
	names := o.Workloads
	if len(names) == 0 {
		names = table2Workloads()
	}
	for _, name := range names {
		v, err := validateWorkload(o, name)
		if err != nil {
			return nil, err
		}
		n := float64(v.counts.Total())
		sdcFrac := float64(v.counts.SDC) / n
		dueFrac := float64(v.counts.DUE) / n
		conserv := 0.0
		if sdcFrac+dueFrac > 0 {
			conserv = v.analysis / (sdcFrac + dueFrac)
		}
		t.AddRowf(name, v.analysis, sdcFrac, dueFrac, sdcFrac+dueFrac, conserv)
	}
	return []*report.Table{t}, nil
}

// validation is one workload's side-by-side: the unprotected single-bit
// VGPR SDC AVF from ACE analysis, and the classified outcomes of
// o.Injections uniform single-bit flips.
type validation struct {
	analysis float64
	counts   inject.Counts
}

func validateWorkload(o Options, name string) (validation, error) {
	s, err := run(o, name)
	if err != nil {
		return validation{}, err
	}
	an, err := analysis.Run{M: s}.Analyzer(analysis.VGPR, analysis.IntraThread, 1)
	if err != nil {
		return validation{}, err
	}
	res, err := an.Analyze(ecc.None{}, bitgeom.Mx1(1))
	if err != nil {
		return validation{}, err
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return validation{}, err
	}
	c, err := inject.NewCampaignContext(o.ctx(), w, sim.InjectionConfig())
	if err != nil {
		return validation{}, err
	}
	rep, err := runInjection(o.ctx(), o, c, inject.RunConfig{N: o.Injections, Seed: o.Seed, Workers: o.Workers})
	if err != nil {
		return validation{}, err
	}
	return validation{analysis: res.SDCMBAVF(), counts: rep.Counts()}, nil
}

func init() {
	registerExp("validate", "ACE analysis vs fault injection (validation)", validate)
}
