package experiments

import (
	"fmt"

	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/faultrate"
	"mbavf/internal/report"
	"mbavf/internal/stats"
)

// vgprConfig is one design point of the Section VIII case study.
type vgprConfig struct {
	label  string
	scheme ecc.Scheme
	style  analysis.Style
	factor int
}

func caseStudyConfigs() []vgprConfig {
	rx, tx := analysis.IntraThread, analysis.InterThread
	return []vgprConfig{
		{"parity rx2", ecc.Parity{}, rx, 2},
		{"parity rx4", ecc.Parity{}, rx, 4},
		{"parity tx2", ecc.Parity{}, tx, 2},
		{"parity tx4", ecc.Parity{}, tx, 4},
		{"sec-ded rx2", ecc.SECDED{}, rx, 2},
		{"sec-ded rx4", ecc.SECDED{}, rx, 4},
		{"sec-ded tx2", ecc.SECDED{}, tx, 2},
		{"sec-ded tx4", ecc.SECDED{}, tx, 4},
	}
}

// approxSDCAVF is the baseline designers use without MB-AVF analysis:
// approximate every fault mode's AVF with the single-bit AVF and
// conservatively assume any fault the protection cannot detect causes
// SDC. A contiguous Mx1 fault over factor-I interleaving concentrates
// ceil(M/I) flips in the worst-hit domain.
func approxSDCAVF(scheme ecc.Scheme, factor, modeSize int, sbLive float64) float64 {
	worst := (modeSize + factor - 1) / factor
	if scheme.React(worst) == ecc.ReactUndetected {
		return sbLive
	}
	return 0
}

// fig11 reproduces the VGPR protection case study: SDC rates (AVF-weighted
// FIT summed over all fault modes, averaged across workloads) for parity
// and SEC-DED under intra-thread (rx) and inter-thread (tx) x2/x4
// interleaving, from full MB-AVF analysis and from the SB-AVF
// approximation (paper Figure 11).
func fig11(o Options) ([]*report.Table, error) {
	rates := faultrate.TableIII()
	configs := caseStudyConfigs()
	t := report.NewTable("Figure 11: GPU VGPR SDC rate by protection scheme (FIT-weighted, mean across workloads)",
		"config", "SDC (MB-AVF analysis)", "SDC (SB-AVF approximation)", "DUE (MB-AVF)", "check-bit overhead")
	t.Caption = "MB-AVF analysis lowers SDC estimates versus the SB-AVF approximation, and parity with x4 inter-thread interleaving beats SEC-DED with x2 interleaving on SDC."

	// Configs sharing a (style, factor) layout differ only in scheme:
	// each layout's schemes x Table III modes are solved as one batch
	// per workload, then rolled up per config in the table's order.
	type layoutKey struct {
		style  analysis.Style
		factor int
	}
	var keys []layoutKey
	byLayout := map[layoutKey][]int{} // layout -> config indices
	for ci, c := range configs {
		k := layoutKey{c.style, c.factor}
		if byLayout[k] == nil {
			keys = append(keys, k)
		}
		byLayout[k] = append(byLayout[k], ci)
	}
	// Per config, one FIT-weighted rate per workload, in workload order.
	sdcMB := make([][]float64, len(configs))
	sdcApprox := make([][]float64, len(configs))
	dueMB := make([][]float64, len(configs))
	for _, name := range o.workloadNames() {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			var queries []core.Query
			for _, ci := range byLayout[k] {
				for _, mr := range rates {
					queries = append(queries, core.Query{Scheme: configs[ci].scheme, Mode: bitgeom.Mx1(mr.Width)})
				}
			}
			an, err := analysis.Run{M: s}.Analyzer(analysis.VGPR, k.style, k.factor)
			if err != nil {
				return nil, err
			}
			series, err := an.AnalyzeMany(0, queries)
			if err != nil {
				return nil, err
			}
			for j, ci := range byLayout[k] {
				cfg := configs[ci]
				var serSDC, serApprox, serDUE float64
				for mi, mr := range rates {
					r := &series[j*len(rates)+mi].Total
					serSDC += faultrate.SER(mr.FIT, r.SDCMBAVF())
					serDUE += faultrate.SER(mr.FIT, r.TrueDUEMBAVF()+r.FalseDUEMBAVF())
					serApprox += faultrate.SER(mr.FIT, approxSDCAVF(cfg.scheme, cfg.factor, mr.Width, r.BitAVFLive()))
				}
				sdcMB[ci] = append(sdcMB[ci], serSDC)
				sdcApprox[ci] = append(sdcApprox[ci], serApprox)
				dueMB[ci] = append(dueMB[ci], serDUE)
			}
		}
	}
	for ci, cfg := range configs {
		overhead := ecc.Overhead(cfg.scheme, 32)
		t.AddRowf(cfg.label, stats.Mean(sdcMB[ci]), stats.Mean(sdcApprox[ci]), stats.Mean(dueMB[ci]),
			fmt.Sprintf("%.1f%%", 100*overhead))
	}
	return []*report.Table{t}, nil
}

func init() {
	registerExp("fig11", "VGPR protection case study", fig11)
}
