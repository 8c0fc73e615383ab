// Package store persists run-artifact measurements — per-byte ACE
// lifetime segments, the solved liveness graph, cycle counts, and the
// machine-config fingerprint — in a compact, versioned, CRC-checked
// binary format, and serves them back from a content-addressed on-disk
// store. Simulation is the dominant cost of every MB-AVF query by orders
// of magnitude; recording its artifacts once per (workload, machine
// config) turns every later analysis into a millisecond-scale decode.
//
// # Format
//
// An artifact is a 5-byte header followed by self-describing sections:
//
//	header  := "MBAV" version(u8)
//	section := id(u8) payloadLen(uvarint) payload crc32(u32 LE)
//
// The CRC (IEEE, over the payload only) makes truncation and bit rot
// detectable per section: a corrupt artifact is rejected with ErrCorrupt
// and quarantined by the store, never silently analyzed. Section ids are
// meta(1), l1(2), l2(3), vgpr(4), graph(5); each appears exactly once.
// Within payloads all integers are varints: lifetime segments are
// delta-encoded (gap since previous segment end, duration, kind,
// zigzag version delta) and the graph's last-read cycles are zigzag
// deltas, which together shrink artifacts by roughly 4-6x versus fixed
// width. Encoding is deterministic — the same measurements always yield
// the same bytes — so artifacts are content-stable and diffable.
//
// Version policy: the single version byte covers the whole layout. Any
// incompatible change (new section semantics, changed encodings) bumps
// it, and readers reject every version but their own with ErrFormat.
// There is no migration machinery on purpose: artifacts are a cache of
// reproducible computation, so the upgrade path is re-recording.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"mbavf/internal/dataflow"
	"mbavf/internal/interval"
	"mbavf/internal/lifetime"
	"mbavf/internal/sim"
)

// Typed decode failures. Everything the decoder can dislike wraps one of
// these two, so callers can distinguish "not an artifact / wrong
// generation" (ErrFormat) from "was an artifact, now damaged"
// (ErrCorrupt) — the store quarantines both rather than analyze them.
var (
	// ErrFormat marks data that is not an artifact this build reads: bad
	// magic, an unsupported version, or an unknown/duplicated section.
	ErrFormat = errors.New("store: unrecognized artifact format")
	// ErrCorrupt marks an artifact with a damaged body: CRC mismatch,
	// truncation, or internally inconsistent payloads.
	ErrCorrupt = errors.New("store: corrupt artifact")
)

const (
	magic   = "MBAV"
	version = 1

	secMeta  = 1
	secL1    = 2
	secL2    = 3
	secVGPR  = 4
	secGraph = 5
	numSecs  = 5

	// vgprBytesPerWord is the register file's word granularity: 32-bit
	// vector registers tracked per byte.
	vgprBytesPerWord = 4
)

// sectionName labels sections in errors and `mbavf-store inspect`.
func sectionName(id byte) string {
	switch id {
	case secMeta:
		return "meta"
	case secL1:
		return "l1"
	case secL2:
		return "l2"
	case secVGPR:
		return "vgpr"
	case secGraph:
		return "graph"
	default:
		return fmt.Sprintf("section(%d)", id)
	}
}

// Meta is the artifact's self-description: everything `mbavf-store ls`
// and `inspect` report without decoding the measurement payloads.
type Meta struct {
	Workload     string
	ConfigFP     string
	Cycles       uint64
	Instructions uint64
	L1Sets       int
	L1Ways       int
	L2Sets       int
	L2Ways       int
	LineBytes    int
	VGPRThreads  int
	VGPRRegs     int
}

// SectionInfo describes one section of an encoded artifact.
type SectionInfo struct {
	Name  string
	Bytes int
}

// --- encoding ---

// enc is a varint-oriented append-only buffer. The encoder sizes every
// section before writing it, so appends fill capacity allocated once.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte(v byte)      { e.b = append(e.b, v) }
func (e *enc) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) uint(v int)       { e.uvarint(uint64(v)) }

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps signed to unsigned varint space the way binary.AppendVarint
// does.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// section is one section to frame: its id, the exact length of its
// payload, and the writer that appends that payload.
type section struct {
	id   byte
	size int
	put  func(*enc)
}

// metaInts are the meta section's geometry fields, in encoding order.
func metaInts(m *sim.Measurements) [7]int {
	return [7]int{m.L1Sets, m.L1Ways, m.L2Sets, m.L2Ways, m.LineBytes, m.VGPRThreads, m.VGPRRegs}
}

// metaSection serializes the Meta section payload.
func metaSection(m *sim.Measurements) section {
	size := uvarintLen(uint64(len(m.Workload))) + len(m.Workload) +
		uvarintLen(uint64(len(m.ConfigFP))) + len(m.ConfigFP) +
		uvarintLen(m.Cycles) + uvarintLen(m.Instructions)
	for _, v := range metaInts(m) {
		size += uvarintLen(uint64(v))
	}
	return section{secMeta, size, func(e *enc) {
		e.str(m.Workload)
		e.str(m.ConfigFP)
		e.uvarint(m.Cycles)
		e.uvarint(m.Instructions)
		for _, v := range metaInts(m) {
			e.uint(v)
		}
	}}
}

// segFields returns the three varint fields one segment encodes to,
// given the previous segment of its slot (zero for the first): the gap
// since the previous end, the duration, and the kind (2 bits) riding in
// the low bits of the zigzagged version delta. Consecutive segments of a
// byte usually hold adjacent versions, so the third field still fits one
// byte — a quarter of the per-segment parse work and ~15% of the
// artifact size compared to a separate kind byte.
func segFields(s lifetime.Seg, prevEnd interval.Cycle, prevVer dataflow.VersionID) (gap, dur, packed uint64) {
	return s.Start - prevEnd, s.End - s.Start, zigzag(int64(s.Version)-int64(prevVer))<<2 | uint64(s.Kind)
}

// trackerSection serializes one structure's lifetime timeline. Segments
// within a slot are ordered and non-overlapping (the tracker builds them
// that way), so each is stored as small numbers (see segFields). The
// payload leads with the total segment count, which lets the decoder
// allocate one exact-size arena for all slots instead of one slice per
// slot — the difference between a ~50ms and a ~10ms decode on a
// cache-sized tracker.
func trackerSection(id byte, t *lifetime.Tracker) section {
	words, bpw := t.Words(), t.BytesPerWord()
	size, total := uvarintLen(uint64(words))+uvarintLen(uint64(bpw)), 0
	for w := 0; w < words; w++ {
		for b := 0; b < bpw; b++ {
			segs := t.Segments(w, b)
			total += len(segs)
			size += uvarintLen(uint64(len(segs)))
			var prevEnd interval.Cycle
			var prevVer dataflow.VersionID
			for _, s := range segs {
				gap, dur, packed := segFields(s, prevEnd, prevVer)
				size += uvarintLen(gap) + uvarintLen(dur) + uvarintLen(packed)
				prevEnd, prevVer = s.End, s.Version
			}
		}
	}
	size += uvarintLen(uint64(total))
	return section{id, size, func(e *enc) {
		e.uint(words)
		e.uint(bpw)
		e.uint(total)
		for w := 0; w < words; w++ {
			for b := 0; b < bpw; b++ {
				segs := t.Segments(w, b)
				e.uint(len(segs))
				var prevEnd interval.Cycle
				var prevVer dataflow.VersionID
				for _, s := range segs {
					gap, dur, packed := segFields(s, prevEnd, prevVer)
					e.uvarint(gap)
					e.uvarint(dur)
					e.uvarint(packed)
					prevEnd, prevVer = s.End, s.Version
				}
			}
		}
	}}
}

// graphSection serializes the solved liveness graph: live masks as
// uvarints (mostly 0 or small), last-read cycles as zigzag deltas (they
// grow with version id), and the ever-read flags as a bitset.
func graphSection(g *dataflow.Graph) section {
	s := g.Solved()
	n := len(s.Live)
	size := uvarintLen(uint64(n)) + (n+7)/8
	for _, v := range s.Live {
		size += uvarintLen(uint64(v))
	}
	var prev int64
	for _, v := range s.LastRead {
		size += uvarintLen(zigzag(int64(v) - prev))
		prev = int64(v)
	}
	return section{secGraph, size, func(e *enc) {
		e.uint(n)
		for _, v := range s.Live {
			e.uvarint(uint64(v))
		}
		var prev int64
		for _, v := range s.LastRead {
			e.varint(int64(v) - prev)
			prev = int64(v)
		}
		base := len(e.b)
		e.b = e.b[:base+(n+7)/8]
		bitset := e.b[base:]
		clear(bitset)
		for i, r := range s.EverRead {
			if r {
				bitset[i/8] |= 1 << (i % 8)
			}
		}
	}}
}

// Encode writes m as one complete artifact. The measurements must be
// fully instrumented (all three trackers and the graph); encoding is
// deterministic, so equal measurements produce equal bytes.
func Encode(w io.Writer, m *sim.Measurements) error {
	data, err := EncodedBytes(m)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// EncodedBytes returns m's artifact encoding as a byte slice. Every
// section is sized first, so the artifact is written once into one
// exact-size allocation, each section framed as id, length, payload,
// CRC.
func EncodedBytes(m *sim.Measurements) ([]byte, error) {
	if !m.Instrumented() {
		return nil, fmt.Errorf("store: measurements are not fully instrumented; nothing to encode")
	}
	secs := [numSecs]section{
		metaSection(m),
		trackerSection(secL1, m.L1Tracker),
		trackerSection(secL2, m.L2Tracker),
		trackerSection(secVGPR, m.VGPRTracker),
		graphSection(m.Graph),
	}
	size := len(magic) + 1
	for _, s := range secs {
		size += 1 + uvarintLen(uint64(s.size)) + s.size + 4
	}
	e := &enc{b: make([]byte, 0, size)}
	e.b = append(e.b, magic...)
	e.byte(version)
	for _, s := range secs {
		e.byte(s.id)
		e.uint(s.size)
		base := len(e.b)
		s.put(e)
		payload := e.b[base:]
		if len(payload) != s.size {
			panic(fmt.Sprintf("store: %s section encoded %d bytes, sized %d", sectionName(s.id), len(payload), s.size))
		}
		e.b = binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(payload))
	}
	return e.b, nil
}

// --- decoding ---

// dec is a bounds-checked cursor over an untrusted payload. Every read
// reports failure instead of panicking, so hostile bytes surface as
// typed errors all the way up.
type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: malformed uvarint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) take(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, fmt.Errorf("%w: truncated payload (want %d bytes, have %d)", ErrCorrupt, n, d.remaining())
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v, nil
}

func (d *dec) str(maxLen int) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(maxLen) {
		return "", fmt.Errorf("%w: string length %d exceeds limit %d", ErrCorrupt, n, maxLen)
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count reads an element count and sanity-checks it against the bytes
// actually present (each element needs at least minBytes), so a hostile
// length cannot force a giant allocation from a tiny input.
func (d *dec) count(minBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(math.MaxInt32) || int64(v)*int64(minBytes) > int64(d.remaining()) {
		return 0, fmt.Errorf("%w: count %d impossible with %d bytes left", ErrCorrupt, v, d.remaining())
	}
	return int(v), nil
}

// maxNameLen bounds the workload and fingerprint strings in meta; real
// values are tens of bytes.
const maxNameLen = 1 << 10

// decodeMeta parses the meta payload.
func decodeMeta(payload []byte) (Meta, error) {
	d := &dec{b: payload}
	var m Meta
	var err error
	if m.Workload, err = d.str(maxNameLen); err != nil {
		return Meta{}, err
	}
	if m.ConfigFP, err = d.str(maxNameLen); err != nil {
		return Meta{}, err
	}
	if m.Cycles, err = d.uvarint(); err != nil {
		return Meta{}, err
	}
	if m.Instructions, err = d.uvarint(); err != nil {
		return Meta{}, err
	}
	for _, dst := range []*int{&m.L1Sets, &m.L1Ways, &m.L2Sets, &m.L2Ways, &m.LineBytes, &m.VGPRThreads, &m.VGPRRegs} {
		v, err := d.uvarint()
		if err != nil {
			return Meta{}, err
		}
		if v > uint64(math.MaxInt32) {
			return Meta{}, fmt.Errorf("%w: geometry value %d out of range", ErrCorrupt, v)
		}
		*dst = int(v)
	}
	if m.Cycles == 0 {
		return Meta{}, fmt.Errorf("%w: artifact has zero cycles", ErrCorrupt)
	}
	if d.remaining() != 0 {
		return Meta{}, fmt.Errorf("%w: %d trailing bytes in meta section", ErrCorrupt, d.remaining())
	}
	return m, nil
}

// decodeTracker rebuilds one structure's lifetime tracker. maxVer bounds
// the version ids segments may reference (the graph's length), so a
// decoded artifact can never index the liveness arrays out of range.
func decodeTracker(name string, payload []byte, wantWords, wantBPW int, maxVer uint64) (*lifetime.Tracker, error) {
	d := &dec{b: payload}
	words, err := d.count(1)
	if err != nil {
		return nil, err
	}
	bpw, err := d.count(1)
	if err != nil {
		return nil, err
	}
	if words != wantWords || bpw != wantBPW {
		return nil, fmt.Errorf("%w: %s tracker is %dx%d, meta says %dx%d",
			ErrCorrupt, name, words, bpw, wantWords, wantBPW)
	}
	total, err := d.count(3) // gap+dur+packed >= 3 bytes per segment
	if err != nil {
		return nil, fmt.Errorf("%s tracker total: %w", name, err)
	}
	if words*bpw > d.remaining() { // each slot needs >= 1 byte (its count)
		return nil, fmt.Errorf("%w: %s tracker claims %d slots with %d bytes left",
			ErrCorrupt, name, words*bpw, d.remaining())
	}
	// One arena for every slot's segments: the declared total (already
	// sanity-checked against the bytes present) sizes it exactly, so the
	// appends below never reallocate and the subslices stay valid.
	arena := make([]lifetime.Seg, 0, total)
	segs := make([][]lifetime.Seg, words*bpw)
	for i := range segs {
		n, err := d.count(3)
		if err != nil {
			return nil, fmt.Errorf("%s tracker slot %d: %w", name, i, err)
		}
		if n == 0 {
			continue
		}
		if n > total-len(arena) {
			return nil, fmt.Errorf("%w: %s tracker slot counts exceed declared total %d",
				ErrCorrupt, name, total)
		}
		base := len(arena)
		slot := arena[base : base+n : base+n]
		arena = arena[:base+n]
		// Hand-inlined varint reads on a local cursor: this loop decodes
		// millions of segments per cache-sized tracker, and the one- and
		// two-byte fast paths (the overwhelmingly common cases for
		// delta-encoded values) plus skipped method-call overhead are
		// what let a warm-store load beat re-simulation by an order of
		// magnitude instead of a small factor.
		b, off := d.b, d.off
		var prevEnd interval.Cycle
		var prevVer int64
		ok := true
		for j := range slot {
			var gap, dur, packed uint64
			if off+1 < len(b) && b[off] < 0x80 {
				gap, off = uint64(b[off]), off+1
			} else if off+2 < len(b) && b[off]&0x80 != 0 && b[off+1] < 0x80 {
				gap, off = uint64(b[off]&0x7f)|uint64(b[off+1])<<7, off+2
			} else if v, k := binary.Uvarint(b[off:]); k > 0 {
				gap, off = v, off+k
			} else {
				ok = false
				break
			}
			if off+1 < len(b) && b[off] < 0x80 {
				dur, off = uint64(b[off]), off+1
			} else if off+2 < len(b) && b[off]&0x80 != 0 && b[off+1] < 0x80 {
				dur, off = uint64(b[off]&0x7f)|uint64(b[off+1])<<7, off+2
			} else if v, k := binary.Uvarint(b[off:]); k > 0 {
				dur, off = v, off+k
			} else {
				ok = false
				break
			}
			if off < len(b) && b[off] < 0x80 {
				packed, off = uint64(b[off]), off+1
			} else if off+1 < len(b) && b[off+1] < 0x80 {
				packed, off = uint64(b[off]&0x7f)|uint64(b[off+1])<<7, off+2
			} else if v, k := binary.Uvarint(b[off:]); k > 0 {
				packed, off = v, off+k
			} else {
				ok = false
				break
			}
			kind := packed & 3
			zz := packed >> 2
			vd := int64(zz>>1) ^ -int64(zz&1) // zigzag decode
			start := prevEnd + gap
			end := start + dur
			if dur == 0 || start < prevEnd || end < start {
				return nil, fmt.Errorf("%w: %s tracker slot %d has a degenerate segment", ErrCorrupt, name, i)
			}
			if kind > uint64(lifetime.SegPending) {
				return nil, fmt.Errorf("%w: %s tracker slot %d has segment kind %d", ErrCorrupt, name, i, kind)
			}
			ver := prevVer + vd
			if ver < 0 || uint64(ver) >= maxVer {
				return nil, fmt.Errorf("%w: %s tracker references version %d outside graph of %d",
					ErrCorrupt, name, ver, maxVer)
			}
			slot[j] = lifetime.Seg{Start: start, End: end, Kind: lifetime.SegKind(kind), Version: dataflow.VersionID(ver)}
			prevEnd = end
			prevVer = ver
		}
		d.off = off
		if !ok {
			return nil, fmt.Errorf("%w: truncated segment in %s tracker slot %d", ErrCorrupt, name, i)
		}
		segs[i] = slot
	}
	if len(arena) != total {
		return nil, fmt.Errorf("%w: %s tracker declared %d segments, found %d",
			ErrCorrupt, name, total, len(arena))
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in %s section", ErrCorrupt, d.remaining(), name)
	}
	t, err := lifetime.Adopt(words, bpw, segs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// unpackBits maps a bitset byte to its eight bools (LSB first), so the
// ever-read bitset expands with one 8-byte copy per input byte instead
// of eight masked shifts.
var unpackBits = func() (t [256][8]bool) {
	for v := range t {
		for i := 0; i < 8; i++ {
			t[v][i] = v&(1<<i) != 0
		}
	}
	return
}()

// decodeGraph rebuilds the solved liveness graph.
func decodeGraph(payload []byte) (*dataflow.Graph, error) {
	d := &dec{b: payload}
	n, err := d.count(2) // live(>=1) + lastread(>=1); the bitset is checked below
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrCorrupt)
	}
	snap := dataflow.Snapshot{
		Live:     make([]uint32, n),
		LastRead: make([]interval.Cycle, n),
		EverRead: make([]bool, n),
	}
	// Local-cursor reads with a one-byte fast path: the graph of a long
	// run holds hundreds of thousands of versions, and most live masks
	// and read-time deltas are small.
	b, off := d.b, d.off
	for i := range snap.Live {
		var v uint64
		if off < len(b) && b[off] < 0x80 {
			v, off = uint64(b[off]), off+1
		} else if off+1 < len(b) && b[off+1] < 0x80 {
			v, off = uint64(b[off]&0x7f)|uint64(b[off+1])<<7, off+2
		} else if u, k := binary.Uvarint(b[off:]); k > 0 {
			v, off = u, off+k
		} else {
			return nil, fmt.Errorf("%w: truncated live mask %d", ErrCorrupt, i)
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("%w: live mask %d exceeds 32 bits", ErrCorrupt, v)
		}
		snap.Live[i] = uint32(v)
	}
	var prev int64
	for i := range snap.LastRead {
		var zz uint64
		if off < len(b) && b[off] < 0x80 {
			zz, off = uint64(b[off]), off+1
		} else if off+1 < len(b) && b[off+1] < 0x80 {
			zz, off = uint64(b[off]&0x7f)|uint64(b[off+1])<<7, off+2
		} else if u, k := binary.Uvarint(b[off:]); k > 0 {
			zz, off = u, off+k
		} else {
			return nil, fmt.Errorf("%w: truncated read time %d", ErrCorrupt, i)
		}
		prev += int64(zz>>1) ^ -int64(zz&1)
		snap.LastRead[i] = uint64(prev)
	}
	d.off = off
	set, err := d.take((n + 7) / 8)
	if err != nil {
		return nil, err
	}
	for i := 0; i+8 <= n; i += 8 {
		copy(snap.EverRead[i:i+8], unpackBits[set[i/8]][:])
	}
	for i := n &^ 7; i < n; i++ {
		snap.EverRead[i] = set[i/8]&(1<<(i%8)) != 0
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in graph section", ErrCorrupt, d.remaining())
	}
	g, err := dataflow.Adopt(snap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// Decode parses a complete artifact back into measurements. It never
// panics on hostile input: every failure wraps ErrFormat or ErrCorrupt.
// The decoded measurements are fully cross-validated (geometry against
// tracker shapes, segment versions against the graph), so analysis over
// them is as safe as over a fresh simulation.
func Decode(data []byte) (*sim.Measurements, error) {
	a, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return a.Measurements()
}

// SectionCheck is one section's integrity verdict from CheckSections.
type SectionCheck struct {
	Name  string
	Bytes int
	// Err is nil when the section's CRC matches its payload.
	Err error
}

// CheckSections walks a complete artifact's framing and verifies every
// section CRC, collecting one result per section, in file order,
// instead of failing on the first mismatch — so `mbavf-store verify`
// and the scrubber can report exactly which sections rotted.
// Framing-level damage (bad magic, malformed lengths, truncation,
// duplicate or missing sections) is returned as the error, alongside
// whatever sections were walkable before the damage.
func CheckSections(data []byte) ([]SectionCheck, error) {
	locs, err := scanBlob(data)
	var out []SectionCheck
	for _, l := range locs {
		out = append(out, SectionCheck{Name: sectionName(l.id), Bytes: int(l.n), Err: l.check(l.payload(data))})
	}
	return out, err
}

// secLoc locates one section's payload inside an artifact blob, with
// the CRC its bytes must hash to.
type secLoc struct {
	id     byte
	off, n int64
	crc    uint32
}

// payload slices the section out of a whole blob.
func (l secLoc) payload(data []byte) []byte { return data[l.off : l.off+l.n] }

// check verifies a section's payload against its CRC.
func (l secLoc) check(payload []byte) error {
	if got := crc32.ChecksumIEEE(payload); got != l.crc {
		return fmt.Errorf("%w: %s section checksum mismatch (%08x != %08x)",
			ErrCorrupt, sectionName(l.id), got, l.crc)
	}
	return nil
}

// maxSecHdr bounds one section header: id byte plus the payload-length
// uvarint.
const maxSecHdr = 1 + binary.MaxVarintLen64

// scanSections is the one walker of an artifact's framing: every reader
// of the format goes through it. It reads the section table through
// small ranged reads — read(off, n) returns n bytes of the blob at off —
// without touching any payload. Each iteration reads a section's
// trailing CRC together with the next section's header, so a
// five-section artifact costs six small reads. It validates magic,
// version and that every section appears exactly once, and returns the
// sections in file order; on framing damage it returns the sections
// walked before it alongside the error. Payload CRCs are NOT checked
// here: the returned locations carry them for the caller to verify.
func scanSections(size int64, read func(off, n int64) ([]byte, error)) ([]secLoc, error) {
	hdr := int64(len(magic) + 1)
	if size < hdr {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	take := func(off, n int64) ([]byte, error) {
		n = min(n, size-off)
		b, err := read(off, n)
		if err == nil && int64(len(b)) != n {
			err = fmt.Errorf("store: short read at offset %d: got %d bytes, want %d", off, len(b), n)
		}
		return b, err
	}
	buf, err := take(0, hdr+maxSecHdr)
	if err != nil {
		return nil, err
	}
	if string(buf[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := buf[len(magic)]; v != version {
		return nil, fmt.Errorf("%w: artifact version %d, this build reads %d", ErrFormat, v, version)
	}
	bufOff, off := int64(0), hdr
	secs := make([]secLoc, 0, numSecs)
	var seen [secGraph + 1]bool
	for off < size {
		if off < bufOff || off >= bufOff+int64(len(buf)) {
			if buf, err = take(off, maxSecHdr); err != nil {
				return secs, err
			}
			bufOff = off
		}
		window := buf[off-bufOff:]
		id := window[0]
		if id < secMeta || id > secGraph {
			return secs, fmt.Errorf("%w: unknown section id %d", ErrFormat, id)
		}
		if seen[id] {
			return secs, fmt.Errorf("%w: duplicate %s section", ErrFormat, sectionName(id))
		}
		seen[id] = true
		n, k := binary.Uvarint(window[1:])
		if k <= 0 {
			return secs, fmt.Errorf("%w: truncated %s section header", ErrCorrupt, sectionName(id))
		}
		payOff := off + 1 + int64(k)
		if n > uint64(size) || payOff+int64(n)+4 > size {
			return secs, fmt.Errorf("%w: %s section length %d exceeds file", ErrCorrupt, sectionName(id), n)
		}
		crcOff := payOff + int64(n)
		// One read covers this section's CRC and (opportunistically) the
		// next section's header.
		if buf, err = take(crcOff, 4+maxSecHdr); err != nil {
			return secs, err
		}
		bufOff = crcOff
		secs = append(secs, secLoc{id: id, off: payOff, n: int64(n), crc: binary.LittleEndian.Uint32(buf[:4])})
		off = crcOff + 4
	}
	for id := byte(secMeta); id <= secGraph; id++ {
		if !seen[id] {
			return secs, fmt.Errorf("%w: missing %s section", ErrFormat, sectionName(id))
		}
	}
	return secs, nil
}

// scanBlob is scanSections over an artifact held whole in memory.
func scanBlob(data []byte) ([]secLoc, error) {
	return scanSections(int64(len(data)), func(off, n int64) ([]byte, error) { return data[off : off+n], nil })
}
