package experiments

import (
	"fmt"
	"math"
	"strconv"

	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/ecc"
	"mbavf/internal/report"
)

// avft is the time-resolved AVF report: for every workload it bins the
// per-bit ACE occupancy of the L1 data array and the vector register file
// into AVFWindows windows of simulated cycles and emits one AVF(t) row
// per (structure, fault mode, window), plus the whole-run TOTAL. AVF
// cells are rendered at full float64 precision (not the display-rounded
// report format), so the CSV form round-trips exactly into plots and the
// window-weighted mean can be checked against the whole-run AVF. Each
// series is also published as observability float gauges
// (avf.<structure>.<workload>.<mode>.{due,sdc}.{total,w<i>}) for the
// debug endpoint's /metrics exposition.
func avft(o Options) ([]*report.Table, error) {
	n := o.AVFWindows
	if n <= 0 {
		n = o.Windows
	}
	if n <= 0 {
		n = 1
	}
	t := report.NewTable(fmt.Sprintf("AVF(t): windowed MB-AVF, parity, %d windows", n),
		"workload", "structure", "mode", "window", "cycles", "DUE MB-AVF", "SDC MB-AVF", "SB-AVF")
	t.Caption = "Per-window AVFs are exact over the window's cycles; the cycle-weighted mean of the windows reproduces the TOTAL row."
	for _, name := range o.workloadNames() {
		s, err := run(o, name)
		if err != nil {
			return nil, err
		}
		window := analysis.Window(s.Cycles, n)
		for _, q := range avftQuestions {
			an, err := analysis.Run{M: s}.Analyzer(q.st, q.style, 2)
			if err != nil {
				return nil, err
			}
			for _, m := range []int{2, 4} {
				series, err := an.AnalyzeWindowed(ecc.Parity{}, bitgeom.Mx1(m), window)
				if err != nil {
					return nil, err
				}
				if err := CheckSeriesConsistency(series); err != nil {
					return nil, fmt.Errorf("avft: %s %s %dx1: %w", name, q.st, m, err)
				}
				series.PublishGauges(string(q.st) + "." + name)
				for i := range series.Windows {
					addAVFRow(t, name, string(q.st), strconv.Itoa(i), &series.Windows[i])
				}
				addAVFRow(t, name, string(q.st), "TOTAL", &series.Total)
			}
		}
	}
	return []*report.Table{t}, nil
}

// avftQuestions are the structures avft resolves over time, each under
// its x2 interleaving: way-physical lines for the L1, inter-thread
// registers for the register file.
var avftQuestions = []struct {
	st    analysis.Structure
	style analysis.Style
}{
	{analysis.L1, analysis.WayPhysical},
	{analysis.VGPR, analysis.InterThread},
}

// addAVFRow appends one AVF(t) row with full-precision float cells.
func addAVFRow(t *report.Table, workload, structure, window string, r *core.Result) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	t.AddRow(workload, structure, r.ModeName, window,
		strconv.FormatUint(r.TotalCycles, 10), f(r.DUEMBAVF()), f(r.SDCMBAVF()), f(r.BitAVF()))
}

// CheckSeriesConsistency verifies the windowing invariant behind the
// AVF(t) report: the cycle-weighted mean of the per-window AVFs must
// equal the whole-run AVF to within 1e-9 (every classified cycle lands in
// exactly one window, so the decomposition is exact up to float
// rounding). It is exported so tests and the avft experiment share one
// definition of "consistent".
func CheckSeriesConsistency(s *core.Series) error {
	if len(s.Windows) == 0 {
		return fmt.Errorf("series has no windows")
	}
	total := float64(s.Total.TotalCycles)
	check := func(kind string, totalAVF float64, windowAVF func(*core.Result) float64) error {
		var mean float64
		var cycles uint64
		for i := range s.Windows {
			w := &s.Windows[i]
			mean += windowAVF(w) * float64(w.TotalCycles) / total
			cycles += w.TotalCycles
		}
		if cycles != s.Total.TotalCycles {
			return fmt.Errorf("windows cover %d cycles, run has %d", cycles, s.Total.TotalCycles)
		}
		if diff := math.Abs(mean - totalAVF); diff > 1e-9 {
			return fmt.Errorf("%s window-weighted mean %v != whole-run %v (diff %v)",
				kind, mean, totalAVF, diff)
		}
		return nil
	}
	if err := check("DUE", s.Total.DUEMBAVF(), (*core.Result).DUEMBAVF); err != nil {
		return err
	}
	if err := check("SDC", s.Total.SDCMBAVF(), (*core.Result).SDCMBAVF); err != nil {
		return err
	}
	return check("SB", s.Total.BitAVF(), (*core.Result).BitAVF)
}

func init() {
	registerExp("avft", "Time-resolved AVF per structure and fault mode", avft)
}
