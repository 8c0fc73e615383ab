package mbavf

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/store"
	"mbavf/internal/store/disk"
)

// ErrNotInStore marks a RunStore lookup for a workload whose artifact
// has not been recorded; callers fall back to simulation.
var ErrNotInStore = store.ErrNotFound

// obsStoreFallbacks counts store loads that failed (missing or corrupt
// artifact) and fell back to a fresh simulation.
var obsStoreFallbacks = obs.NewCounter("store.fallback_simulations")

// RunStore is a persistent, content-addressed collection of run
// artifacts: the "record once, analyze forever" tier. Each artifact is
// keyed by a stable hash of the workload and the machine configuration,
// so analyses served from the store are exactly the analyses a fresh
// simulation would produce — for the price of a millisecond-scale
// decode instead of a full simulation.
//
// The storage itself is pluggable: NewRunStore accepts any
// store.Backend — a local directory (internal/store/disk), the HTTP
// artifact server of another mbavf-serve process
// (internal/store/httpstore, so one recorded artifact warms a whole
// fleet), or an in-memory map for tests (internal/store/mem). Multiple
// processes may share one backend; writes are atomic and damaged
// artifacts quarantine themselves on first read.
type RunStore struct {
	st *store.Store
}

// NewRunStore builds a run store over any artifact-store backend.
func NewRunStore(b store.Backend) *RunStore {
	return &RunStore{st: store.NewStore(b)}
}

// OpenRunStore opens (creating if needed) a run-artifact store rooted at
// dir. Every store.Backend implementation lives under mbavf/internal,
// so this is the one constructor a program outside the mbavf import
// path can call; NewRunStore serves code inside it that picks its own
// backend.
func OpenRunStore(dir string) (*RunStore, error) {
	b, err := disk.New(dir)
	if err != nil {
		return nil, err
	}
	return NewRunStore(b), nil
}

// Dir describes the store's backing location: the root directory of a
// disk store, the base URL of an HTTP store.
func (rs *RunStore) Dir() string { return rs.st.Dir() }

// Backend returns the blob layer this store runs over, so a server can
// mount it behind the HTTP artifact protocol.
func (rs *RunStore) Backend() store.Backend { return rs.st.Backend() }

// Maintain runs the store's background hygiene loop — periodic CRC
// scrubs and size-bounding GC — until ctx is cancelled. It blocks;
// callers run it in a goroutine.
func (rs *RunStore) Maintain(ctx context.Context, cfg store.MaintainConfig) {
	rs.st.Maintain(ctx, cfg)
}

// Key returns the content address of the named workload's artifact
// under the default machine configuration (the one RunWorkloadContext
// uses).
func (rs *RunStore) Key(workload string) string {
	return store.KeyFor(workload, sim.DefaultConfig())
}

// Has reports whether the workload's artifact is recorded; ctx bounds
// the backend I/O.
func (rs *RunStore) Has(ctx context.Context, workload string) bool {
	return rs.st.Has(ctx, rs.Key(workload))
}

// LoadContext revives the named workload's recorded Run; ctx bounds the
// backend I/O (a remote store may be slow or gone). A missing artifact
// returns ErrNotInStore; a damaged one (any CRC mismatch) is
// quarantined and returns a typed decode error. Either way the caller's
// fallback is RunWorkloadContext.
//
// Loading is lazy: over a local backend the artifact's framing and
// checksums are fully verified here, while each section's measurement
// payload decodes on the first analysis that touches it; over a ranged
// backend (HTTP) even the payload bytes transfer on first touch —
// reviving a run costs milliseconds regardless of artifact size, and an
// L1 query never pays to decode (or download) the L2 timeline.
func (rs *RunStore) LoadContext(ctx context.Context, workload string) (*Run, error) {
	a, err := rs.st.GetArtifact(ctx, rs.Key(workload))
	if err != nil {
		return nil, err
	}
	meta := a.Meta()
	if meta.Workload != workload {
		// A key collision is cryptographically impossible; a mismatch
		// means the file was planted or renamed. Do not analyze it.
		return nil, fmt.Errorf("mbavf: store artifact names workload %q, wanted %q", meta.Workload, workload)
	}
	return &Run{m: metaMeasurements(meta), art: a}, nil
}

// metaMeasurements seeds a lazily backed run's measurements with the
// artifact's metadata; the trackers and graph stay nil and decode from
// the artifact on demand.
func metaMeasurements(meta store.Meta) *sim.Measurements {
	return &sim.Measurements{
		Workload:     meta.Workload,
		ConfigFP:     meta.ConfigFP,
		Cycles:       meta.Cycles,
		Instructions: meta.Instructions,
		L1Sets:       meta.L1Sets,
		L1Ways:       meta.L1Ways,
		L2Sets:       meta.L2Sets,
		L2Ways:       meta.L2Ways,
		LineBytes:    meta.LineBytes,
		VGPRThreads:  meta.VGPRThreads,
		VGPRRegs:     meta.VGPRRegs,
	}
}

// Preload forces the deferred decoding of a store-loaded run for the
// named structures (every structure when none are given), so subsequent
// queries pay analysis cost only. Simulated runs are always fully
// materialized, making Preload a no-op for them. Servers call it to
// move artifact decoding off the query path; benchmarks call it to
// charge the store's full cost to the acquisition phase.
func (r *Run) Preload(sts ...Structure) error {
	if r.art == nil {
		return nil
	}
	if len(sts) == 0 {
		sts = Structures()
	}
	if _, err := r.graph(); err != nil {
		return err
	}
	for _, st := range sts {
		if _, err := r.tracker(st); err != nil {
			return err
		}
	}
	return nil
}

// SaveContext records the run as the named workload's artifact,
// atomically replacing any previous recording; ctx bounds the backend
// I/O.
func (rs *RunStore) SaveContext(ctx context.Context, workload string, r *Run) error {
	m, err := r.measurements()
	if err != nil {
		return err
	}
	return rs.st.Put(ctx, rs.Key(workload), m)
}

// storeRetryDelay is the backoff before the single load retry on a
// transient store failure; a var so tests don't wait.
var storeRetryDelay = 50 * time.Millisecond

// loadPreloaded is LoadContext plus an eager Preload of the structures
// the caller is about to analyze. The preload matters on a ranged
// (HTTP) backend: section payloads transfer and CRC-check on first
// touch, so forcing the touch here surfaces remote damage while the
// caller can still fall back to simulation and re-record.
func (rs *RunStore) loadPreloaded(ctx context.Context, workload string, sts []Structure) (*Run, error) {
	r, err := rs.LoadContext(ctx, workload)
	if err != nil {
		return nil, err
	}
	if len(sts) > 0 {
		if err := r.Preload(sts...); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// RunWorkloadStored returns the named workload's Run from the store when
// a valid artifact is recorded, and simulates (then records) otherwise.
// The boolean reports whether the store answered. A nil store always
// simulates; a store that cannot be written (read-only disk, quota)
// still returns the simulated run — persistence is an accelerator,
// never a correctness dependency.
//
// sts names the structures the caller is about to analyze: a
// store-served Run arrives with those structures preloaded, so a remote
// section that turns out damaged (or a server that vanishes
// mid-download) is discovered here — where the fallback-to-simulation
// machinery can still handle it — instead of mid-analysis.
//
// Load failures split by kind. A damaged artifact (ErrCorrupt /
// ErrFormat) is already quarantined by the store, so the fallback
// simulation re-records a good replacement. A transient failure (EMFILE,
// NFS hiccup, an unreachable artifact server) gets one retried load
// after a short backoff, and if that also fails the fallback simulation
// does NOT overwrite the artifact — the recording in the store may be
// perfectly good, and clobbering it mid-flap would throw away an
// expensive, valid run.
func RunWorkloadStored(ctx context.Context, name string, rs *RunStore, sts ...Structure) (*Run, bool, error) {
	if rs == nil {
		r, err := RunWorkloadContext(ctx, name)
		return r, false, err
	}
	record := true
	r, err := rs.loadPreloaded(ctx, name, sts)
	switch {
	case err == nil:
		return r, true, nil
	case errors.Is(err, ErrNotInStore):
		// Nothing recorded yet: simulate and record.
	case errors.Is(err, store.ErrCorrupt), errors.Is(err, store.ErrFormat):
		// Damaged and quarantined: simulate and re-record a good artifact.
		obsStoreFallbacks.Add(1)
	default:
		// Transient: retry once with backoff before giving up on the
		// store for this call.
		select {
		case <-time.After(storeRetryDelay):
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if r, err = rs.loadPreloaded(ctx, name, sts); err == nil {
			return r, true, nil
		}
		obsStoreFallbacks.Add(1)
		record = false
	}
	r, err = RunWorkloadContext(ctx, name)
	if err != nil {
		return nil, false, err
	}
	if record {
		_ = rs.SaveContext(ctx, name, r) // best-effort; failure to persist must not fail the run
	}
	return r, false, nil
}
