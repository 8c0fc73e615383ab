package mbavf

import (
	"fmt"
	"io"

	"mbavf/internal/sim"
	"mbavf/internal/store"
)

// Save serializes the run's measurement artifact in the compact binary
// store format: varint/delta-encoded lifetime segments, the solved
// liveness graph, cycle counts, and the machine-config fingerprint, all
// in CRC-checked sections. A saved run reloads with LoadRun and supports
// every analysis method without re-simulation, bit-identically —
// "measure once, analyze many". For a managed on-disk collection keyed
// by (workload, machine config), use RunStore instead of raw files.
func (r *Run) Save(w io.Writer) error {
	m, err := r.measurements()
	if err != nil {
		return err
	}
	if !m.Instrumented() {
		return fmt.Errorf("mbavf: run is not fully instrumented; nothing to save")
	}
	return store.Encode(w, m)
}

// measurements returns the run's complete measurement set. For a run
// backed by a store artifact it forces any not-yet-decoded sections
// (reusing the ones queries already decoded); for a simulated run it is
// free.
func (r *Run) measurements() (*sim.Measurements, error) {
	if r.art != nil {
		return r.art.Measurements()
	}
	return r.m, nil
}

// LoadRun revives a Run saved with Save. Damaged or truncated input is
// rejected with a typed error (the format CRC-checks every section);
// analysis never runs over partially decoded artifacts.
func LoadRun(rd io.Reader) (*Run, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("mbavf: reading run artifact: %w", err)
	}
	m, err := store.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("mbavf: decoding run artifact: %w", err)
	}
	return &Run{m: m}, nil
}
