package mbavf

import (
	"mbavf/internal/bitgeom"
	"mbavf/internal/core"
)

// ACELocality quantifies the tendency of the bits of a fault group to be
// ACE at the same time (the paper's ACE-locality property, Section VI-B):
// the fraction of any-bit-ACE group time during which every bit is ACE.
// Structures with high locality have MB-AVFs near the 1x SB-AVF floor.
type ACELocality struct {
	// Coefficient is P(all bits ACE | any bit ACE) in [0, 1].
	Coefficient float64
	// Groups is the number of fault groups measured.
	Groups int
}

func localityOf(a *core.Analyzer, modeBits int) (ACELocality, error) {
	loc, err := a.ACELocality(bitgeom.Mx1(modeBits))
	if err != nil {
		return ACELocality{}, err
	}
	return ACELocality{Coefficient: loc.Coefficient(), Groups: loc.Groups}, nil
}

// L1ACELocality measures ACE locality of Mx1 fault groups in compute unit
// 0's L1 data array under the given interleaving layout.
func (r *Run) L1ACELocality(il Interleaving, modeBits int) (ACELocality, error) {
	a, err := r.analyzerFor(L1, il, modeBits)
	if err != nil {
		return ACELocality{}, err
	}
	return localityOf(a, modeBits)
}

// VGPRACELocality measures ACE locality of Mx1 fault groups in the vector
// register file under the given interleaving layout.
func (r *Run) VGPRACELocality(il Interleaving, modeBits int) (ACELocality, error) {
	a, err := r.analyzerFor(VGPR, il, modeBits)
	if err != nil {
		return ACELocality{}, err
	}
	return localityOf(a, modeBits)
}
