package mbavf

import (
	"fmt"

	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
)

// AVFSeries is a windowed AVF time profile: Total over the full run plus
// one AVF per window of Window cycles — the quantized-AVF view behind the
// paper's Figures 5 and 8.
type AVFSeries struct {
	Window  uint64
	Total   AVF
	Windows []AVF
}

func seriesOf(a *core.Analyzer, scheme Scheme, modeBits int, windows int) (AVFSeries, error) {
	impl, err := scheme.impl()
	if err != nil {
		return AVFSeries{}, err
	}
	if windows < 1 {
		return AVFSeries{}, fmt.Errorf("%w: need at least one window (got %d)", ErrBadOption, windows)
	}
	win := analysis.Window(a.TotalCycles, windows)
	s, err := a.AnalyzeWindowed(impl, bitgeom.Mx1(modeBits), win)
	if err != nil {
		return AVFSeries{}, err
	}
	out := AVFSeries{Window: win, Total: fromResult(&s.Total)}
	for i := range s.Windows {
		out.Windows = append(out.Windows, fromResult(&s.Windows[i]))
	}
	return out, nil
}
