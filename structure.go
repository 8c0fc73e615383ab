package mbavf

import (
	"errors"
	"fmt"

	"mbavf/internal/analysis"
	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
	"mbavf/internal/faultrate"
)

// ErrBadOption marks a request that is well-formed Go but semantically
// invalid: an unknown structure or scheme, an interleaving style that the
// structure does not support, a non-positive interleaving factor or fault
// mode, a factor or fault mode the structure's geometry cannot take, or a
// negative experiment option. Callers (in particular the HTTP
// serving layer) distinguish it from infrastructure failures with
// errors.Is and map it to a client error.
var ErrBadOption = errors.New("mbavf: bad option")

// Structure names an analyzable hardware structure. It is the single
// dispatch point of the unified query API: every (structure, scheme,
// interleaving, mode) combination goes through Run.AVF / Run.SER instead
// of one method per structure.
type Structure string

// Analyzable structures.
const (
	// L1 is compute unit 0's L1 data array.
	L1 Structure = "l1"
	// L2 is the shared L2 data array.
	L2 Structure = "l2"
	// VGPR is compute unit 0's vector register file.
	VGPR Structure = "vgpr"
)

// Structures lists every analyzable structure.
func Structures() []Structure { return []Structure{L1, L2, VGPR} }

// ParseStructure maps a wire name ("l1", "l2", "vgpr") to a Structure.
func ParseStructure(s string) (Structure, error) {
	for _, st := range Structures() {
		if string(st) == s {
			return st, nil
		}
	}
	return "", fmt.Errorf("%w: unknown structure %q (have l1, l2, vgpr)", ErrBadOption, s)
}

// Styles returns the interleaving styles the structure supports: the
// cache styles for L1/L2, the register-file styles for VGPR.
func (st Structure) Styles() []Style {
	switch st {
	case VGPR:
		return []Style{StyleIntraThread, StyleInterThread}
	default:
		return []Style{StyleLogical, StyleWayPhysical, StyleIndexPhysical}
	}
}

// Schemes lists the supported protection schemes.
func Schemes() []Scheme { return []Scheme{NoProtection, Parity, SECDED, DECTED} }

// validateQuery is the one shared parameter check behind every query
// method (AVF, AVFSeries, SER, PolicyAVF, ACELocality): the interleaving
// degree and the fault-mode width must both be positive. Layout
// constructors additionally require the factor to divide the structure's
// geometry.
func validateQuery(il Interleaving, modeBits int) error {
	if il.Factor < 1 {
		return fmt.Errorf("%w: interleaving factor %d must be >= 1", ErrBadOption, il.Factor)
	}
	if modeBits < 1 {
		return fmt.Errorf("%w: fault mode must span at least 1 bit (got %d)", ErrBadOption, modeBits)
	}
	return nil
}

// source is the run as the analysis package reads it.
func (r *Run) source() analysis.Run { return analysis.Run{M: r.m, Art: r.art} }

// analyzerFor builds the MB-AVF analyzer of one structure under one
// interleaving layout: the single construction path behind every query
// method, called after validateQuery.
// A style the structure does not take, a layout its geometry cannot
// take (a factor that does not divide it) and an Mx1 mode wider than
// its wordlines are bad options. All three are checked before the
// (possibly lazily decoded) measurements are touched, so malformed
// queries against store-loaded runs never pay for a section decode.
func (r *Run) analyzerFor(st Structure, il Interleaving, modeBits int) (*core.Analyzer, error) {
	p, err := r.source().Plan(analysis.Structure(st), analysis.Style(il.Style), il.Factor)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOption, err)
	}
	if geom := p.Layout.Geom; modeBits > geom.Cols {
		return nil, fmt.Errorf("%w: fault mode %dx1 does not fit the %s geometry %dx%d", ErrBadOption, modeBits, st, geom.Rows, geom.Cols)
	}
	return p.Analyzer()
}

// AVF measures the MB-AVF of an Mx1 fault mode (modeBits adjacent bits
// along a wordline) in the given structure under the given protection
// scheme and interleaving layout. For the VGPR with inter-thread
// interleaving it applies the paper's detection-preempts-SDC rule
// (registers of a 16-thread group are read in lock-step, so an adjacent
// thread's DUE fires before an SDC propagates).
func (r *Run) AVF(st Structure, scheme Scheme, il Interleaving, modeBits int) (AVF, error) {
	if err := validateQuery(il, modeBits); err != nil {
		return AVF{}, err
	}
	a, err := r.analyzerFor(st, il, modeBits)
	if err != nil {
		return AVF{}, err
	}
	impl, err := scheme.impl()
	if err != nil {
		return AVF{}, err
	}
	res, err := a.Analyze(impl, bitgeom.Mx1(modeBits))
	if err != nil {
		return AVF{}, err
	}
	return fromResult(res), nil
}

// AVFSeries measures the structure's MB-AVF over time, split into the
// given number of windows.
func (r *Run) AVFSeries(st Structure, scheme Scheme, il Interleaving, modeBits, windows int) (AVFSeries, error) {
	if err := validateQuery(il, modeBits); err != nil {
		return AVFSeries{}, err
	}
	a, err := r.analyzerFor(st, il, modeBits)
	if err != nil {
		return AVFSeries{}, err
	}
	return seriesOf(a, scheme, modeBits, windows)
}

// SER rolls the structure's per-mode AVFs into SDC and DUE soft error
// rates using the paper's Table III raw fault rates (1x1 through 8x1,
// total rate normalized to 100).
func (r *Run) SER(st Structure, scheme Scheme, il Interleaving) (SER, error) {
	if err := validateQuery(il, 1); err != nil {
		return SER{}, err
	}
	a, err := r.analyzerFor(st, il, 1)
	if err != nil {
		return SER{}, err
	}
	impl, err := scheme.impl()
	if err != nil {
		return SER{}, err
	}
	// Every mode shares the layout: one batch solves them all.
	rates := faultrate.TableIII()
	queries := make([]core.Query, len(rates))
	for i, mr := range rates {
		queries[i] = core.Query{Scheme: impl, Mode: bitgeom.Mx1(mr.Width)}
	}
	series, err := a.AnalyzeMany(0, queries)
	if err != nil {
		return SER{}, err
	}
	var out SER
	for i, mr := range rates {
		avf := fromResult(&series[i].Total)
		out.SDC += faultrate.SER(mr.FIT, avf.SDC)
		out.DUE += faultrate.SER(mr.FIT, avf.TrueDUE+avf.FalseDUE)
	}
	return out, nil
}
