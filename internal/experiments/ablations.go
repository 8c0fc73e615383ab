package experiments

// Ablation experiments beyond the paper's figures, exercising the design
// choices DESIGN.md calls out: the ACE-locality metric that explains the
// interleaving results, alternative protection codes (DEC-TED, CRC), and
// non-contiguous (rectangular) fault geometries.

import (
	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/report"
	"mbavf/internal/stats"
)

// locality quantifies ACE locality per interleaving style, the mechanism
// behind Figure 4's ordering: layouts whose adjacent bits belong to data
// used together have locality near 1 and MB-AVF near the 1x floor.
func locality(o Options) ([]*report.Table, error) {
	t := report.NewTable("Ablation: ACE locality coefficient (2x1 groups, L1) vs MB/SB ratio",
		"workload", "logical loc", "logical MB/SB", "way-phys loc", "way-phys MB/SB", "index-phys loc", "index-phys MB/SB")
	t.Caption = "Higher locality -> lower MB/SB ratio; logical interleaving maximizes locality by construction."
	for _, name := range o.workloadNames() {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		mode := bitgeom.Mx1(2)
		row := []any{name}
		for _, style := range []analysis.Style{analysis.Logical, analysis.WayPhysical, analysis.IndexPhysical} {
			an, err := analysis.Run{M: s}.Analyzer(analysis.L1, style, 2)
			if err != nil {
				return nil, err
			}
			loc, err := an.ACELocality(mode)
			if err != nil {
				return nil, err
			}
			r, err := an.Analyze(ecc.Parity{}, mode)
			if err != nil {
				return nil, err
			}
			row = append(row, loc.Coefficient(), stats.Ratio(r.DUEMBAVF(), r.BitAVF()))
		}
		t.AddRowf(row...)
	}
	return []*report.Table{t}, nil
}

// schemes compares protection codes on equal footing: 4x1 faults over x2
// way-physical interleaving, where each domain sees two flips — parity is
// defeated (SDC), SEC-DED detects, DEC-TED corrects, and CRC-8 detects.
func schemes(o Options) ([]*report.Table, error) {
	codes := []ecc.Scheme{ecc.None{}, ecc.Parity{}, ecc.SECDED{}, ecc.DECTED{}, ecc.CRC{Width: 8}}
	header := []string{"workload"}
	var queries []core.Query
	for _, c := range codes {
		header = append(header, c.Name()+" DUE", c.Name()+" SDC")
		queries = append(queries, core.Query{Scheme: c, Mode: bitgeom.Mx1(4)})
	}
	t := report.NewTable("Ablation: protection schemes on 4x1 faults, x2 way-physical interleaving", header...)
	t.Caption = "Each domain sees 2 flips: parity undetected, SEC-DED detected, DEC-TED corrected, CRC detected."
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
			row = append(row, sr.Total.DUEMBAVF(), sr.Total.SDCMBAVF())
		}
		t.AddRowf(row...)
	}
	return []*report.Table{t}, nil
}

// geometry compares contiguous Mx1 fault modes with rectangular 2x2 and
// 2x4 geometries, which the engine supports but the paper only gestures
// at ("arbitrary shapes and sizes").
func geometry(o Options) ([]*report.Table, error) {
	modes := []bitgeom.FaultMode{
		bitgeom.Mx1(2),
		bitgeom.Mx1(4),
		bitgeom.Rect(2, 2), // 2 rows x 2 cols
		bitgeom.Rect(2, 4),
	}
	header := []string{"workload"}
	var queries []core.Query
	for _, m := range modes {
		header = append(header, m.Name())
		queries = append(queries, core.Query{Scheme: ecc.CRC{Width: 8}, Mode: m})
	}
	t := report.NewTable("Ablation: contiguous vs rectangular fault geometries (CRC-8, x2 way-physical, DUE/SB)", header...)
	t.Caption = "Mode names are width x height. CRC-8 detects every tested size, so DUE/SB isolates pure geometry: rectangular faults span wordlines, touch more distinct lines, and push MB-AVF higher than same-size contiguous faults."
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
			row = append(row, stats.Ratio(sr.Total.DUEMBAVF(), sr.Total.BitAVF()))
		}
		t.AddRowf(row...)
	}
	return []*report.Table{t}, nil
}

func init() {
	registerExp("locality", "ACE locality vs MB/SB ratio (ablation)", locality)
	registerExp("schemes", "Protection scheme comparison (ablation)", schemes)
	registerExp("geometry", "Rectangular fault geometries (ablation)", geometry)
}

// l2 compares the same fault mode in the L1 and the shared L2. L2 data
// lives longer between uses (only L1 misses touch it), shifting both the
// raw AVF and the ACE-locality profile.
func l2(o Options) ([]*report.Table, error) {
	t := report.NewTable("Ablation: L1 vs L2, 2x1 DUE MB-AVF, parity, x2 way-physical",
		"workload", "L1 SB-AVF", "L1 MB/SB", "L2 SB-AVF", "L2 MB/SB")
	t.Caption = "The shared L2 filters L1 hits: its residency and locality profile differ from the L1's."
	mode := bitgeom.Mx1(2)
	for _, name := range o.workloadNames() {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		row := []any{name}
		for _, st := range []analysis.Structure{analysis.L1, analysis.L2} {
			an, err := analysis.Run{M: s}.Analyzer(st, analysis.WayPhysical, 2)
			if err != nil {
				return nil, err
			}
			r, err := an.Analyze(ecc.Parity{}, mode)
			if err != nil {
				return nil, err
			}
			row = append(row, r.BitAVF(), stats.Ratio(r.DUEMBAVF(), r.BitAVF()))
		}
		t.AddRowf(row...)
	}
	return []*report.Table{t}, nil
}

func init() {
	registerExp("l2", "L1 vs L2 vulnerability (ablation)", l2)
}
