package mbavf

import "mbavf/internal/bitgeom"

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

// ACELocality measures the ACE locality of Mx1 fault groups in the
// given structure under the given interleaving layout.
func (r *Run) ACELocality(st Structure, il Interleaving, modeBits int) (ACELocality, error) {
	if err := validateQuery(il, modeBits); err != nil {
		return ACELocality{}, err
	}
	a, err := r.analyzerFor(st, il, modeBits)
	if err != nil {
		return ACELocality{}, err
	}
	loc, err := a.ACELocality(bitgeom.Mx1(modeBits))
	if err != nil {
		return ACELocality{}, err
	}
	return ACELocality{Coefficient: loc.Coefficient(), Groups: loc.Groups}, nil
}
