package experiments

import (
	"fmt"

	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/report"
	"mbavf/internal/stats"
)

// fig4 measures the 2x1 DUE MB-AVF of the L1 cache with parity under
// three x2 interleaving styles, normalized to the single-bit AVF (paper
// Figure 4).
func fig4(o Options) ([]*report.Table, error) {
	t := report.NewTable("Figure 4: L1 2x1 DUE MB-AVF / SB-AVF, parity, x2 interleavings",
		"workload", "SB-AVF", "logical-x2", "way-phys-x2", "index-phys-x2")
	t.Caption = "Ratios lie in [1x, 2x]; logical interleaving tracks the 1x floor (highest ACE locality)."
	var logR, wayR, idxR []float64
	for _, name := range o.workloadNames() {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		mode := bitgeom.Mx1(2)
		var ratios [3]float64
		var sb float64
		for i, style := range []analysis.Style{analysis.Logical, analysis.WayPhysical, analysis.IndexPhysical} {
			an, err := analysis.Run{M: s}.Analyzer(analysis.L1, style, 2)
			if err != nil {
				return nil, err
			}
			r, err := an.Analyze(ecc.Parity{}, mode)
			if err != nil {
				return nil, err
			}
			sb = r.BitAVF()
			ratios[i] = stats.Ratio(r.DUEMBAVF(), sb)
		}
		logR = append(logR, ratios[0])
		wayR = append(wayR, ratios[1])
		idxR = append(idxR, ratios[2])
		t.AddRowf(name, sb, ratios[0], ratios[1], ratios[2])
	}
	t.AddRowf("MEAN", "", stats.Mean(logR), stats.Mean(wayR), stats.Mean(idxR))
	return []*report.Table{t}, nil
}

// fig5 plots MiniFE's SB-AVF and 2x1 MB-AVF over time, plus the 2x1
// MB-AVF of each interleaving style over time (paper Figures 5a and 5b).
func fig5(o Options) ([]*report.Table, error) {
	s, err := run(o, "minife")
	if err != nil {
		return nil, err
	}
	window := analysis.Window(s.Cycles, o.Windows)
	mode := bitgeom.Mx1(2)
	series := func(style analysis.Style) (*core.Series, error) {
		an, err := analysis.Run{M: s}.Analyzer(analysis.L1, style, 2)
		if err != nil {
			return nil, err
		}
		return an.AnalyzeWindowed(ecc.Parity{}, mode, window)
	}
	idxSeries, err := series(analysis.IndexPhysical)
	if err != nil {
		return nil, err
	}
	logSeries, err := series(analysis.Logical)
	if err != nil {
		return nil, err
	}
	waySeries, err := series(analysis.WayPhysical)
	if err != nil {
		return nil, err
	}

	a := report.NewTable("Figure 5a: MiniFE L1 SB-AVF and 2x1 MB-AVF over time (x2 index interleaving)",
		"window", "SB-AVF", "2x1 MB-AVF", "MB/SB")
	a.Caption = "The MB/SB ratio shifts across application phases."
	for i, w := range idxSeries.Windows {
		a.AddRowf(i, w.BitAVF(), w.DUEMBAVF(), stats.Ratio(w.DUEMBAVF(), w.BitAVF()))
	}
	a.AddRowf("TOTAL", idxSeries.Total.BitAVF(), idxSeries.Total.DUEMBAVF(),
		stats.Ratio(idxSeries.Total.DUEMBAVF(), idxSeries.Total.BitAVF()))

	b := report.NewTable("Figure 5b: MiniFE 2x1 DUE MB-AVF over time by interleaving style",
		"window", "logical-x2", "way-phys-x2", "index-phys-x2")
	for i := range logSeries.Windows {
		b.AddRowf(i, logSeries.Windows[i].DUEMBAVF(), waySeries.Windows[i].DUEMBAVF(),
			idxSeries.Windows[i].DUEMBAVF())
	}
	b.AddRowf("TOTAL", logSeries.Total.DUEMBAVF(), waySeries.Total.DUEMBAVF(),
		idxSeries.Total.DUEMBAVF())
	return []*report.Table{a, b}, nil
}

// fig6 sweeps the fault-mode size from 2x1 to 8x1 with x4 way-physical
// interleaving under parity (6a) and SEC-DED (6b), reporting DUE MB-AVF
// normalized to SB-AVF per workload (paper Figure 6).
func fig6(o Options) ([]*report.Table, error) {
	// Parity with x4 interleaving detects Mx1 faults up to the interleave
	// degree (each domain sees one flip); SEC-DED needs 5x1..8x1 to leave
	// two flips in a domain. An 8x1 fault under SEC-DED splits exactly
	// like a 4x1 fault under parity, the paper's Section VI-C
	// equivalence.
	subs := []struct {
		scheme ecc.Scheme
		sub    string
		modes  []int
	}{
		{ecc.Parity{}, "a", []int{2, 3, 4}},
		{ecc.SECDED{}, "b", []int{5, 6, 7, 8}},
	}
	tables := make([]*report.Table, len(subs))
	sums := make([][]float64, len(subs))
	var queries []core.Query
	for i, sb := range subs {
		header := []string{"workload"}
		for _, m := range sb.modes {
			header = append(header, fmt.Sprintf("%dx1", m))
			queries = append(queries, core.Query{Scheme: sb.scheme, Mode: bitgeom.Mx1(m)})
		}
		tables[i] = report.NewTable(fmt.Sprintf("Figure 6%s: L1 DUE MB-AVF / SB-AVF, %s, x4 way-physical", sb.sub, sb.scheme.Name()), header...)
		sums[i] = make([]float64, len(sb.modes))
	}
	// Both tables share one layout per workload: one batch fills both.
	n := 0
	for _, name := range o.workloadNames() {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		an, err := analysis.Run{M: s}.Analyzer(analysis.L1, analysis.WayPhysical, 4)
		if err != nil {
			return nil, err
		}
		series, err := an.AnalyzeMany(0, queries)
		if err != nil {
			return nil, err
		}
		k := 0
		for i, sb := range subs {
			row := []any{name}
			for j := range sb.modes {
				r := &series[k].Total
				k++
				ratio := stats.Ratio(r.DUEMBAVF(), r.BitAVF())
				sums[i][j] += ratio
				row = append(row, ratio)
			}
			tables[i].AddRowf(row...)
		}
		n++
	}
	for i := range subs {
		mean := []any{"MEAN"}
		for _, s := range sums[i] {
			mean = append(mean, s/float64(n))
		}
		tables[i].AddRowf(mean...)
	}
	tables[0].Caption = "MB-AVF grows with fault-mode size: a larger group is more likely to contain an ACE bit."
	tables[1].Caption = "Mx1 under SEC-DED tracks (M-4)x1 under parity: correction absorbs per-domain single flips, so 8x1 SEC-DED matches 4x1 parity."
	return tables, nil
}

// fig8 compares SDC and DUE MB-AVF for 3x1 faults under parity with x2
// index- vs way-physical interleaving on MiniFE, over time (paper
// Figure 8).
func fig8(o Options) ([]*report.Table, error) {
	s, err := run(o, "minife")
	if err != nil {
		return nil, err
	}
	window := analysis.Window(s.Cycles, o.Windows)
	mode := bitgeom.Mx1(3)
	mk := func(style analysis.Style, name string) (*report.Table, error) {
		an, err := analysis.Run{M: s}.Analyzer(analysis.L1, style, 2)
		if err != nil {
			return nil, err
		}
		series, err := an.AnalyzeWindowed(ecc.Parity{}, mode, window)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Figure 8: MiniFE 3x1 MB-AVF, parity, "+name,
			"window", "SDC MB-AVF", "DUE MB-AVF (true+false)")
		for i, w := range series.Windows {
			t.AddRowf(i, w.SDCMBAVF(), w.TrueDUEMBAVF()+w.FalseDUEMBAVF())
		}
		t.AddRowf("TOTAL", series.Total.SDCMBAVF(),
			series.Total.TrueDUEMBAVF()+series.Total.FalseDUEMBAVF())
		return t, nil
	}
	a, err := mk(analysis.IndexPhysical, "x2 index-physical")
	if err != nil {
		return nil, err
	}
	a.Caption = "SDC dominates 3x1 outcomes, but a non-trivial DUE fraction remains (single-flip regions detect)."
	b, err := mk(analysis.WayPhysical, "x2 way-physical")
	if err != nil {
		return nil, err
	}
	return []*report.Table{a, b}, nil
}

// fig9 reports SDC MB-AVF for 5x1..8x1 faults with SEC-DED and x2
// way-physical interleaving, normalized to SB-AVF (paper Figure 9).
func fig9(o Options) ([]*report.Table, error) {
	modes := []int{5, 6, 7, 8}
	header := []string{"workload"}
	var queries []core.Query
	for _, m := range modes {
		header = append(header, fmt.Sprintf("%dx1 SDC", m), fmt.Sprintf("%dx1 DUE", m))
		queries = append(queries, core.Query{Scheme: ecc.SECDED{}, Mode: bitgeom.Mx1(m)})
	}
	t := report.NewTable("Figure 9: L1 SDC MB-AVF / SB-AVF, SEC-DED, x2 way-physical", header...)
	t.Caption = "SDC jumps from 5x1 to 6x1 (5x1 leaves one detectable 2-flip domain) then plateaus through 8x1 (high in-line ACE locality)."
	for _, name := range o.workloadNames() {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		an, err := analysis.Run{M: s}.Analyzer(analysis.L1, analysis.WayPhysical, 2)
		if err != nil {
			return nil, err
		}
		series, err := an.AnalyzeMany(0, queries)
		if err != nil {
			return nil, err
		}
		row := []any{name}
		for _, sr := range series {
			r := &sr.Total
			sb := r.BitAVF()
			row = append(row, stats.Ratio(r.SDCMBAVF(), sb),
				stats.Ratio(r.TrueDUEMBAVF()+r.FalseDUEMBAVF(), sb))
		}
		t.AddRowf(row...)
	}
	return []*report.Table{t}, nil
}

// fig10 splits DUE MB-AVF into true and false DUE per fault mode under
// parity with x4 way-physical interleaving (paper Figure 10).
func fig10(o Options) ([]*report.Table, error) {
	modes := []int{1, 2, 3, 4}
	header := []string{"workload"}
	var queries []core.Query
	for _, m := range modes {
		header = append(header, fmt.Sprintf("%dx1 true", m), fmt.Sprintf("%dx1 false", m), fmt.Sprintf("%dx1 false%%", m))
		queries = append(queries, core.Query{Scheme: ecc.Parity{}, Mode: bitgeom.Mx1(m)})
	}
	t := report.NewTable("Figure 10: true vs false DUE MB-AVF by fault mode, parity, x4 way-physical", header...)
	t.Caption = "False DUE is small on average but benchmark-dependent; its share shifts with fault-mode size."
	for _, name := range o.workloadNames() {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		an, err := analysis.Run{M: s}.Analyzer(analysis.L1, analysis.WayPhysical, 4)
		if err != nil {
			return nil, err
		}
		series, err := an.AnalyzeMany(0, queries)
		if err != nil {
			return nil, err
		}
		row := []any{name}
		for _, sr := range series {
			tr, fa := sr.Total.TrueDUEMBAVF(), sr.Total.FalseDUEMBAVF()
			row = append(row, tr, fa, 100*stats.Ratio(fa, tr+fa))
		}
		t.AddRowf(row...)
	}
	return []*report.Table{t}, nil
}

func init() {
	registerExp("fig4", "2x1 DUE MB-AVF vs interleaving style", fig4)
	registerExp("fig5", "MiniFE AVFs over time", fig5)
	registerExp("fig6", "DUE MB-AVF vs fault-mode size", fig6)
	registerExp("fig8", "SDC vs DUE MB-AVF for 3x1 faults", fig8)
	registerExp("fig9", "SDC MB-AVF for 5x1..8x1 with SEC-DED", fig9)
	registerExp("fig10", "True vs false DUE", fig10)
}
