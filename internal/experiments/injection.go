package experiments

import (
	"context"
	"fmt"

	"mbavf/internal/fabric"
	"mbavf/internal/inject"
	"mbavf/internal/report"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// runInjection executes a campaign either in-process or — when the
// options name a fabric fleet — distributed across it. Either path is
// bit-identical (deterministic per-shot sampling), so experiments never
// have to care where their shots ran.
func runInjection(ctx context.Context, o Options, c *inject.Campaign, rc inject.RunConfig) (*inject.RunReport, error) {
	if len(o.FabricWorkers) == 0 {
		return c.Run(ctx, rc)
	}
	return fabric.New(fabric.Config{Workers: o.FabricWorkers}, c).Run(ctx, rc)
}

// table2Workloads mirrors the paper's Table II benchmark list (the AMD
// OpenCL sample suite).
func table2Workloads() []string {
	return []string{
		"scanlargearrays", "dct", "dwthaar1d", "fastwalsh", "histogram",
		"matrixtranspose", "prefixsum", "recursivegaussian", "matmul",
	}
}

// table2 runs the ACE-interference fault-injection study (paper Table
// II): single-bit campaigns identify SDC ACE bits, then 2x1/3x1/4x1
// multi-bit groups containing those bits are injected and groups whose
// outcome is masked are counted as ACE interference.
func table2(o Options) ([]*report.Table, error) {
	t := report.NewTable("Table II: ACE interference in multi-bit faults",
		"benchmark", "injections", "SDC ACE bits", "2x1 interf", "3x1 interf", "4x1 interf")
	t.Caption = fmt.Sprintf("Single-bit campaign of %d injections per benchmark (paper: 5000); interference = multi-bit group masked despite containing an SDC ACE bit.", o.Injections)
	names := o.Workloads
	if len(names) == 0 {
		names = table2Workloads()
	}
	totalBits, totalInterf, lostShots := 0, 0, 0
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		c, err := inject.NewCampaignContext(o.ctx(), w, sim.InjectionConfig())
		if err != nil {
			return nil, err
		}
		rep, err := runInjection(o.ctx(), o, c, inject.RunConfig{N: o.Injections, Seed: o.Seed, Workers: o.Workers})
		if err != nil {
			return nil, err
		}
		lostShots += rep.InfraErrors()
		sdc := inject.SDCBits(rep.Results())
		study, err := c.InterferenceStudy(o.ctx(), sdc, []int{2, 3, 4})
		if err != nil {
			return nil, err
		}
		row := []any{name, o.Injections, len(sdc)}
		for _, sres := range study {
			row = append(row, sres.Interference)
			totalInterf += sres.Interference
		}
		totalBits += len(sdc)
		t.AddRowf(row...)
	}
	t.AddRowf("TOTAL", "", totalBits, "", "", "")
	if totalBits > 0 {
		t.Caption += fmt.Sprintf(" Overall interference: %d of %d group injections (%.2f%%).",
			totalInterf, 3*totalBits, 100*float64(totalInterf)/float64(3*totalBits))
	}
	if lostShots > 0 {
		t.Caption += fmt.Sprintf(" %d shots lost to infrastructure errors.", lostShots)
	}
	return []*report.Table{t}, nil
}

func init() {
	registerExp("table2", "ACE interference injection study", table2)
}
