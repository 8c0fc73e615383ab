package store

import (
	"fmt"
	"sync"
	"time"

	"mbavf/internal/dataflow"
	"mbavf/internal/lifetime"
	"mbavf/internal/sim"
)

// Artifact is a parsed run artifact whose measurement payloads decode on
// first use. On the whole-blob path Parse validates everything
// structural up front — magic, version, section framing, every CRC — so
// any byte-level damage is caught before an Artifact exists; on the
// ranged path the framing is validated at load time and each section's
// CRC on every fetch. Either way the per-section payload decoding (the
// expensive part, millions of varint-packed segments) is deferred until
// an analysis actually touches that structure. A single L1 query
// against a big artifact therefore pays for the meta, graph and L1
// sections only, never for the L2 and register-file timelines — and
// over a ranged backend it never even transfers them.
//
// All methods are safe for concurrent use. Each section sits behind its
// own lock: concurrent first touches wait on a single decode, and a
// section that decodes is kept, immutable, from then on. A failed fetch
// or decode keeps nothing, so the next call fetches again — a network
// blip fails one query, not the artifact for as long as it is cached.
// A tracker's lock may take the graph's, never the reverse.
type Artifact struct {
	meta Meta
	locs [numSecs]secLoc // indexed by section id - 1
	// fetch returns one section's CRC-verified payload: a slice of the
	// verified blob after Parse, a checked ranged read after a ranged
	// load.
	fetch func(secLoc) ([]byte, error)

	graph    lazy[*dataflow.Graph]
	trackers [3]lazy[*lifetime.Tracker] // indexed by secL1/secL2/secVGPR - secL1
}

// lazy holds one section's decoded value, set only by a decode that
// succeeds.
type lazy[T any] struct {
	mu   sync.Mutex
	v    T
	done bool
}

// get returns the cached value, running decode under the lock until one
// call of it succeeds.
func (l *lazy[T]) get(decode func() (T, error)) (T, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		v, err := decode()
		if err != nil {
			return v, err
		}
		l.v, l.done = v, true
	}
	return l.v, nil
}

// newArtifact indexes a walked section table and decodes the meta
// section through fetch, the function every later section comes
// through too.
func newArtifact(locs []secLoc, fetch func(secLoc) ([]byte, error)) (*Artifact, error) {
	a := &Artifact{fetch: fetch}
	for _, l := range locs {
		a.locs[l.id-1] = l
	}
	payload, err := fetch(a.locs[secMeta-1])
	if err != nil {
		return nil, err
	}
	if a.meta, err = decodeMeta(payload); err != nil {
		return nil, err
	}
	return a, nil
}

// Parse validates an artifact's header, section framing and checksums
// and decodes its meta section. Hostile or damaged input fails here with
// ErrFormat or ErrCorrupt; the returned Artifact's payloads are
// CRC-clean and decode lazily.
func Parse(data []byte) (*Artifact, error) {
	locs, err := scanBlob(data)
	if err != nil {
		return nil, err
	}
	for _, l := range locs {
		if err := l.check(l.payload(data)); err != nil {
			return nil, err
		}
	}
	return newArtifact(locs, func(l secLoc) ([]byte, error) { return l.payload(data), nil })
}

// Meta returns the artifact's identity and geometry (decoded at load).
func (a *Artifact) Meta() Meta { return a.meta }

// sections reports each section's payload size, in section-id order.
func (a *Artifact) sections() []SectionInfo {
	out := make([]SectionInfo, 0, numSecs)
	for _, l := range a.locs {
		out = append(out, SectionInfo{Name: sectionName(l.id), Bytes: int(l.n)})
	}
	return out
}

// decodeSection fetches one section's payload and decodes it, recording
// the decode time of a success.
func decodeSection[T any](a *Artifact, id byte, decode func([]byte) (T, error)) (T, error) {
	payload, err := a.fetch(a.locs[id-1])
	if err != nil {
		var zero T
		return zero, err
	}
	start := time.Now()
	v, err := decode(payload)
	if err == nil {
		obsDecodeNS.Record(uint64(time.Since(start).Nanoseconds()))
	}
	return v, err
}

// Graph returns the solved liveness graph, decoding it on first call.
func (a *Artifact) Graph() (*dataflow.Graph, error) {
	return a.graph.get(func() (*dataflow.Graph, error) {
		return decodeSection(a, secGraph, decodeGraph)
	})
}

// tracker decodes one structure's tracker on first call. The graph
// decodes first if needed: segment version ids are validated against
// its length.
func (a *Artifact) tracker(id byte, name string, words, bpw int) (*lifetime.Tracker, error) {
	return a.trackers[id-secL1].get(func() (*lifetime.Tracker, error) {
		g, err := a.Graph()
		if err != nil {
			return nil, fmt.Errorf("%s tracker needs the graph: %w", name, err)
		}
		return decodeSection(a, id, func(payload []byte) (*lifetime.Tracker, error) {
			return decodeTracker(name, payload, words, bpw, uint64(g.Len()))
		})
	})
}

// L1 returns the L1 data array's lifetime tracker, decoding on first
// call.
func (a *Artifact) L1() (*lifetime.Tracker, error) {
	return a.tracker(secL1, "l1", a.meta.L1Sets*a.meta.L1Ways, a.meta.LineBytes)
}

// L2 returns the L2 data array's lifetime tracker, decoding on first
// call.
func (a *Artifact) L2() (*lifetime.Tracker, error) {
	return a.tracker(secL2, "l2", a.meta.L2Sets*a.meta.L2Ways, a.meta.LineBytes)
}

// VGPR returns the vector register file's lifetime tracker, decoding on
// first call.
func (a *Artifact) VGPR() (*lifetime.Tracker, error) {
	return a.tracker(secVGPR, "vgpr", a.meta.VGPRThreads*a.meta.VGPRRegs, vgprBytesPerWord)
}

// Measurements decodes every remaining section and assembles the full
// measurement set — the eager path behind Decode and Verify. Sections
// already decoded are reused, so calling it after queries costs only
// what the queries have not yet paid.
func (a *Artifact) Measurements() (*sim.Measurements, error) {
	g, err := a.Graph()
	if err != nil {
		return nil, err
	}
	l1, err := a.L1()
	if err != nil {
		return nil, err
	}
	l2, err := a.L2()
	if err != nil {
		return nil, err
	}
	vgpr, err := a.VGPR()
	if err != nil {
		return nil, err
	}
	m := a.meta.Measurements()
	m.L1Tracker, m.L2Tracker, m.VGPRTracker, m.Graph = l1, l2, vgpr, g
	return m, nil
}

// Measurements returns the metadata as measurements whose trackers and
// graph are nil: the identity, cycle counts and geometry a stored run
// is analyzed with before any section decodes.
func (m Meta) Measurements() *sim.Measurements {
	return &sim.Measurements{
		Workload:     m.Workload,
		ConfigFP:     m.ConfigFP,
		Cycles:       m.Cycles,
		Instructions: m.Instructions,
		L1Sets:       m.L1Sets,
		L1Ways:       m.L1Ways,
		L2Sets:       m.L2Sets,
		L2Ways:       m.L2Ways,
		LineBytes:    m.LineBytes,
		VGPRThreads:  m.VGPRThreads,
		VGPRRegs:     m.VGPRRegs,
	}
}
