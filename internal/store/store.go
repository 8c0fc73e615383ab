package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/store/backend"
	"mbavf/internal/store/disk"
)

// Observability series; /metrics exposes them as mbavf_store_*. Every
// family is counted twice: once unlabeled (the process aggregate smoke
// tests and dashboards grep for) and once per backend kind, exposed as
// mbavf_store_*{backend="disk"} — so a process mixing a local disk
// store and a remote HTTP store still shows where the bytes went. A
// cold-start query that answers without simulating shows up as a
// store.hits increment with store.misses (and serve.simulations) flat.
var (
	// obsDecodeNS records one sample per decoded section payload (graph
	// or tracker); lazily loaded artifacts contribute only the sections
	// their queries actually touched.
	obsDecodeNS = obs.NewHistogram("store.decode_ns")
)

// counter2 increments the aggregate family and its backend-labeled
// series together.
type counter2 struct{ agg, lab *obs.Counter }

func (c counter2) Add(n uint64) { c.agg.Add(n); c.lab.Add(n) }

// metrics is one Store's counter set, labeled by its backend kind.
type metrics struct {
	hits         counter2
	misses       counter2
	puts         counter2
	corrupt      counter2
	quarantined  counter2
	gcRemoved    counter2
	bytesRead    counter2
	bytesWritten counter2
	scrubChecked counter2
	scrubDamaged counter2
}

func newMetrics(kind string) *metrics {
	c := func(family string) counter2 {
		// The registry hands back the same counter for the same name, so
		// every Store over the same backend kind shares one series.
		return counter2{obs.NewCounter(family), obs.NewCounter(family + "|backend=" + kind)}
	}
	return &metrics{
		hits:         c("store.hits"),
		misses:       c("store.misses"),
		puts:         c("store.puts"),
		corrupt:      c("store.corrupt"),
		quarantined:  c("store.quarantined"),
		gcRemoved:    c("store.gc_removed"),
		bytesRead:    c("store.bytes_read"),
		bytesWritten: c("store.bytes_written"),
		scrubChecked: c("store.scrub_checked"),
		scrubDamaged: c("store.scrub_damaged"),
	}
}

// ErrNotFound marks a GetArtifact/Inspect for a key the store does not hold;
// callers fall through to simulation.
var ErrNotFound = backend.ErrNotFound

// Backend is the pluggable blob layer beneath a Store; see
// internal/store/backend for the contract and internal/store/disk,
// .../mem, .../httpstore for the implementations.
type Backend = backend.Interface

// KeyFor returns the content address of a (workload, machine config)
// pair: a 32-hex-digit digest stable across processes and hosts. The
// workload name covers the workload's parameters too — bundled
// workloads bake their sizes into their identity — and the config
// fingerprint covers every field of the machine shape.
func KeyFor(workload string, cfg sim.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "workload=%s\nconfig=%s\n", workload, cfg.Fingerprint())
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Store is a content-addressed collection of run artifacts over a
// pluggable Backend. The Store owns artifact semantics — format
// validation, CRC checking, quarantine of damaged artifacts, lazy
// decoding, scrub and GC policy — while the backend only moves opaque
// bytes. All methods are safe for concurrent use.
type Store struct {
	b backend.Interface
	m *metrics
	// ranged backends (HTTP) get the section-table-scan load path: an
	// L1 query transfers the meta, graph and L1 sections only.
	ranged bool
}

// NewStore wraps a backend in artifact semantics.
func NewStore(b backend.Interface) *Store {
	s := &Store{b: b, m: newMetrics(b.Name())}
	if rb, ok := b.(backend.Ranged); ok {
		s.ranged = rb.Ranged()
	}
	return s
}

// Open returns a store over a disk backend rooted at dir, creating the
// directory if needed — a shorthand for NewStore(disk.New(dir)) kept
// for the many callers that predate pluggable backends.
func Open(dir string) (*Store, error) {
	b, err := disk.New(dir)
	if err != nil {
		return nil, err
	}
	return NewStore(b), nil
}

// Backend returns the blob layer this store runs over (so a server can
// mount it behind the HTTP artifact protocol).
func (s *Store) Backend() backend.Interface { return s.b }

// Dir describes the backing location: the root directory of a disk
// store, the base URL of an HTTP store.
func (s *Store) Dir() string { return s.b.String() }

// Path returns the file path an artifact with the given key lives at,
// or "" when the backend is not file-based.
func (s *Store) Path(key string) string {
	if d, ok := s.b.(*disk.Backend); ok {
		return d.Path(key)
	}
	return ""
}

func checkKey(key string) error { return backend.CheckKey(key) }

// GetArtifact loads the artifact stored under key as a lazily decoding
// Artifact — the store's one load. A missing artifact returns
// ErrNotFound; a damaged one is quarantined and returns an error
// wrapping ErrCorrupt or ErrFormat — it is never silently analyzed, and
// the caller's fallback is re-simulation.
//
// Over a local backend the whole blob is read and every CRC verified
// before it returns; over a ranged backend (HTTP) only the section
// table and the meta section transfer here, and each remaining section
// is fetched — and CRC-verified — on the first analysis that touches
// it. Either way the measurement payloads decode on first use. This is
// the serving tier's load path: reviving a run costs low milliseconds,
// and each analysis then pays for only the sections it touches.
func (s *Store) GetArtifact(ctx context.Context, key string) (*Artifact, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	a, err := s.load(ctx, key)
	switch {
	case err == nil:
		s.m.hits.Add(1)
	case errors.Is(err, ErrNotFound):
		s.m.misses.Add(1)
	default:
		s.quarantineDamaged(ctx, key, err)
	}
	return a, err
}

// load builds the artifact under key through the backend's load path:
// the whole blob from a local backend, the section table and meta
// section from a ranged one.
func (s *Store) load(ctx context.Context, key string) (*Artifact, error) {
	if s.ranged {
		return s.loadRanged(ctx, key)
	}
	return s.loadBlob(ctx, key)
}

// loadBlob reads the whole blob and parses it, verifying every CRC: on
// a local file one sequential read beats five seeks.
func (s *Store) loadBlob(ctx context.Context, key string) (*Artifact, error) {
	data, err := s.b.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	s.m.bytesRead.Add(uint64(len(data)))
	return Parse(data)
}

// loadRanged builds an Artifact without transferring the whole blob:
// Stat for the size, a handful of small ReadSection calls to walk the
// section table (validating framing eagerly), then the meta payload.
// Every section's CRC is verified as the section is fetched.
func (s *Store) loadRanged(ctx context.Context, key string) (*Artifact, error) {
	info, err := s.b.Stat(ctx, key)
	if err != nil {
		return nil, err
	}
	read := func(ctx context.Context, off, n int64) ([]byte, error) {
		data, err := s.b.ReadSection(ctx, key, off, n)
		if err == nil {
			s.m.bytesRead.Add(uint64(len(data)))
		}
		return data, err
	}
	locs, err := scanSections(info.Bytes, func(off, n int64) ([]byte, error) { return read(ctx, off, n) })
	if err != nil {
		return nil, err
	}
	fetch := func(ctx context.Context, l secLoc) ([]byte, error) {
		data, err := read(ctx, l.off, l.n)
		if err != nil {
			return nil, fmt.Errorf("store: fetching %s section: %w", sectionName(l.id), err)
		}
		return data, l.check(data)
	}
	a, err := newArtifact(locs, func(l secLoc) ([]byte, error) { return fetch(ctx, l) })
	if err != nil {
		return nil, err
	}
	// Later fetches run on a detached context: the artifact outlives the
	// request that loaded it (it sits in the serve tier's run cache), so
	// an abandoned request must not poison its decoding. No load is left
	// to handle their damage, so they quarantine it themselves.
	dctx := context.WithoutCancel(ctx)
	a.fetch = func(l secLoc) ([]byte, error) {
		data, err := fetch(dctx, l)
		return data, s.quarantineDamaged(dctx, key, err)
	}
	return a, nil
}

// quarantineDamaged quarantines the artifact under key when err marks
// it damaged (ErrCorrupt or ErrFormat), and returns err.
func (s *Store) quarantineDamaged(ctx context.Context, key string, err error) error {
	if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFormat) {
		s.quarantine(ctx, key)
	}
	return err
}

// quarantine counts a damaged artifact in store.corrupt and moves it
// out of the addressable namespace so the next load for its key misses
// cleanly. Backends that cannot keep the bytes for post-mortem just
// delete. Best-effort: a failure leaves the artifact to fail its CRC
// again.
func (s *Store) quarantine(ctx context.Context, key string) {
	s.m.corrupt.Add(1)
	if q, ok := s.b.(backend.Quarantiner); ok {
		if q.Quarantine(ctx, key) == nil {
			s.m.quarantined.Add(1)
		}
		return
	}
	if s.b.Delete(ctx, key) == nil {
		s.m.quarantined.Add(1)
	}
}

// Put encodes m and commits it under key atomically.
func (s *Store) Put(ctx context.Context, key string, m *sim.Measurements) error {
	if err := checkKey(key); err != nil {
		return err
	}
	data, err := EncodedBytes(m)
	if err != nil {
		return err
	}
	if err := s.b.Put(ctx, key, data); err != nil {
		return err
	}
	s.m.puts.Add(1)
	s.m.bytesWritten.Add(uint64(len(data)))
	return nil
}

// Has reports whether an artifact is stored under key (without
// validating it; GetArtifact still decides whether it is usable).
func (s *Store) Has(ctx context.Context, key string) bool {
	if checkKey(key) != nil {
		return false
	}
	ok, err := s.b.Has(ctx, key)
	return err == nil && ok
}

// Delete removes the artifact stored under key, if any.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return s.b.Delete(ctx, key)
}

// Info describes one stored artifact for listing and inspection.
type Info struct {
	Key      string
	Bytes    int64
	ModTime  time.Time
	Meta     Meta
	Sections []SectionInfo
	// Err carries the decode failure of a damaged artifact in List
	// output (Inspect returns it as an error instead).
	Err error
}

// Inspect reads one artifact's metadata and section layout, verifying
// its framing and CRCs but not decoding the measurement payloads.
func (s *Store) Inspect(ctx context.Context, key string) (Info, error) {
	if err := checkKey(key); err != nil {
		return Info{}, err
	}
	ki, err := s.b.Stat(ctx, key)
	if err != nil {
		return Info{}, err
	}
	data, err := s.b.Get(ctx, key)
	if err != nil {
		return Info{}, err
	}
	a, err := Parse(data)
	if err != nil {
		return Info{}, err
	}
	return Info{Key: key, Bytes: ki.Bytes, ModTime: ki.ModTime, Meta: a.Meta(), Sections: a.sections()}, nil
}

// List enumerates the stored artifacts, sorted by key. Damaged
// artifacts are included with Err set rather than hidden, so
// `mbavf-store ls` shows them. Each artifact loads the way GetArtifact
// loads it, without its hit and miss counts or quarantine, since a
// listing is a diagnostic: a local backend reads the whole blob and
// verifies every CRC, a ranged one transfers only the section table and
// the meta section, so it flags framing and meta damage only (Verify
// checks every CRC).
func (s *Store) List(ctx context.Context) ([]Info, error) {
	kis, err := s.b.List(ctx)
	if err != nil {
		return nil, err
	}
	sort.Slice(kis, func(i, j int) bool { return kis[i].Key < kis[j].Key })
	out := make([]Info, 0, len(kis))
	for _, ki := range kis {
		info := Info{Key: ki.Key, Bytes: ki.Bytes, ModTime: ki.ModTime}
		a, err := s.load(ctx, ki.Key)
		switch {
		case errors.Is(err, ErrNotFound):
			continue // raced with a concurrent delete
		case err != nil:
			info.Err = err
		default:
			info.Meta, info.Sections = a.Meta(), a.sections()
		}
		out = append(out, info)
	}
	return out, nil
}

// Verify fully decodes the artifact under key, exercising every CRC and
// every payload invariant. It does not quarantine: verify is a
// diagnostic, not a serving path.
func (s *Store) Verify(ctx context.Context, key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	data, err := s.b.Get(ctx, key)
	if err != nil {
		return err
	}
	_, err = Decode(data)
	return err
}

// VerifySections checks the artifact under key section by section,
// returning one result per section so damage reports name the section
// that rotted instead of just the artifact. The returned error covers
// framing-level damage (bad magic, truncation) that prevents walking
// the sections at all.
func (s *Store) VerifySections(ctx context.Context, key string) ([]SectionCheck, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	data, err := s.b.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return CheckSections(data)
}

// Scrub walks every stored artifact and validates its framing and every
// section CRC (cheap CPU-bound checks over one sequential read each),
// quarantining the damaged ones so they fail over to re-simulation
// before a query ever trips on them. It returns how many artifacts were
// checked and how many were found damaged.
func (s *Store) Scrub(ctx context.Context) (checked, damaged int, err error) {
	kis, err := s.b.List(ctx)
	if err != nil {
		return 0, 0, err
	}
	for _, ki := range kis {
		if err := ctx.Err(); err != nil {
			return checked, damaged, err
		}
		data, err := s.b.Get(ctx, ki.Key)
		if errors.Is(err, ErrNotFound) {
			continue // raced with a concurrent delete
		}
		if err != nil {
			return checked, damaged, err
		}
		checked++
		s.m.scrubChecked.Add(1)
		bad := false
		secs, serr := CheckSections(data)
		if serr != nil {
			bad = true
		}
		for _, sc := range secs {
			if sc.Err != nil {
				bad = true
			}
		}
		if bad {
			damaged++
			s.m.scrubDamaged.Add(1)
			s.quarantine(ctx, ki.Key)
		}
	}
	return checked, damaged, nil
}

// GC bounds the store: the backend's private debris (quarantined
// artifacts, orphaned temp files) is swept first, then the oldest
// artifacts (by modification time) are evicted until the remainder fits
// maxBytes. maxBytes <= 0 means unlimited (only the sweep runs). With
// dryRun nothing is removed; the counts report what a real GC would
// reclaim. It returns how many blobs were removed and how many bytes
// were freed.
func (s *Store) GC(ctx context.Context, maxBytes int64, dryRun bool) (removed int, freed int64, err error) {
	if sw, ok := s.b.(backend.Sweeper); ok {
		removed, freed, err = sw.Sweep(ctx, dryRun)
		if err != nil {
			return removed, freed, err
		}
	}
	kis, err := s.b.List(ctx)
	if err != nil {
		return removed, freed, err
	}
	var total int64
	for _, ki := range kis {
		total += ki.Bytes
	}
	if maxBytes > 0 && total > maxBytes {
		sort.Slice(kis, func(i, j int) bool { return kis[i].ModTime.Before(kis[j].ModTime) })
		for _, ki := range kis {
			if total <= maxBytes {
				break
			}
			if !dryRun {
				if s.b.Delete(ctx, ki.Key) != nil {
					continue
				}
			}
			removed++
			freed += ki.Bytes
			total -= ki.Bytes
		}
	}
	if !dryRun {
		s.m.gcRemoved.Add(uint64(removed))
	}
	return removed, freed, nil
}

// MaintainConfig tunes the background maintenance loop.
type MaintainConfig struct {
	// Interval between maintenance passes (default 10 minutes).
	Interval time.Duration
	// MaxBytes bounds the store size for GC eviction; <= 0 disables
	// eviction (the sweep and scrub still run).
	MaxBytes int64
	// Scrub enables the per-pass CRC scrub over every artifact.
	Scrub bool
}

// Maintain runs scrub and GC passes every Interval until ctx is
// cancelled. It blocks; callers run it in a goroutine. Failures are
// absorbed (the loop keeps going) — maintenance is hygiene, never a
// correctness dependency — but they surface in the scrub/GC counters.
func (s *Store) Maintain(ctx context.Context, cfg MaintainConfig) {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Minute
	}
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if cfg.Scrub {
			_, _, _ = s.Scrub(ctx)
		}
		_, _, _ = s.GC(ctx, cfg.MaxBytes, false)
	}
}
