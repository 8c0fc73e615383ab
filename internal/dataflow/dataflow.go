// Package dataflow builds a dynamic value-dependence graph during
// simulation and solves backward bit-level liveness over it.
//
// Every value produced during execution — a vector register write, a
// stored memory byte, a per-lane condition bit — is a version. Versions
// record how liveness propagates from the produced value back to the
// values it was computed from (the transfer function), so a single reverse
// pass over the version array computes, for every version, the mask of
// bits that influence program output.
//
// This is the program-level masking analysis the paper's SDC ACE model
// requires (Section VII): versions with a zero live mask correspond to
// first-level or transitively dynamically-dead values, and partially-zero
// masks capture logic masking (e.g. bits removed by an AND). Control and
// address consumers are handled conservatively: a value that feeds a
// branch condition, a memory address, or scalar code is marked fully live,
// matching standard industrial ACE practice.
package dataflow

import (
	"fmt"
	"math/bits"

	"mbavf/internal/interval"
)

// VersionID names a dynamic value. Version 0 is the ground version: the
// contents of registers and memory before the program ran; it is never
// live and its reads are ignored.
type VersionID uint32

// Transfer describes how a version's liveness propagates to its
// dependencies.
type Transfer uint8

const (
	// TransferNone has no dependencies (immediates, input data).
	TransferNone Transfer = iota
	// TransferAll makes every bit of every dependency live if any result
	// bit is live (multiplies, float ops, comparisons).
	TransferAll
	// TransferMove propagates the result mask unchanged to every
	// dependency (moves, XOR, NOT, and other bit-wise permutation-free
	// ops).
	TransferMove
	// TransferArith propagates carry-aware liveness for addition and
	// subtraction: a dependency bit is live if any result bit at or above
	// it is live.
	TransferArith
	// TransferAnd is bitwise AND: Deps[0]'s live mask is the result mask
	// restricted to bits where the other operand (value in Aux) is 1, and
	// the optional Deps[1] is restricted by Aux2 symmetrically.
	TransferAnd
	// TransferOr is bitwise OR: Deps[0]'s live mask is restricted to bits
	// where the other operand (Aux) is 0; the optional Deps[1] uses Aux2.
	TransferOr
	// TransferShl is a left shift by Aux: dependency bit i feeds result
	// bit i+Aux. The optional Deps[1] is a variable shift amount, whose
	// low five bits are live whenever any result bit is.
	TransferShl
	// TransferShr is a logical right shift by Aux, with the same optional
	// shift-amount dependency as TransferShl.
	TransferShr
	// TransferSelect is a conditional move: Deps[0] is the selected value
	// (mask propagates unchanged) and Deps[1] is the 1-bit condition,
	// live iff any result bit is live.
	TransferSelect
	// TransferByte is a stored memory byte: Deps[0] is the source word
	// version and Aux the byte index within it; the byte's 8-bit mask
	// maps onto bits 8*Aux..8*Aux+7 of the source.
	TransferByte
	// TransferAssemble is a loaded word: Deps[k] is the memory byte
	// version supplying bits 8k..8k+7 of the result. Missing bytes use
	// version 0.
	TransferAssemble
)

const maxDeps = 4

// Version is one dynamic value in the graph.
type Version struct {
	Transfer Transfer
	NDeps    uint8
	Deps     [maxDeps]VersionID
	// Aux carries the transfer's parameter: the other operand's value for
	// TransferAnd/TransferOr, the shift amount for shifts, the byte index
	// for TransferByte.
	Aux uint32
	// Aux2 carries the symmetric parameter for Deps[1] of
	// TransferAnd/TransferOr.
	Aux2 uint32
}

// pageShift sets the recording page size: 1<<pageShift versions per
// page (about 164 KiB).
const pageShift = 12

const (
	pageVersions = 1 << pageShift
	pageMask     = pageVersions - 1
)

// page records pageVersions consecutive versions: their dependence edges
// and the consumer facts noted against them before Solve.
type page struct {
	versions [pageVersions]Version
	rootLive [pageVersions]uint32 // liveness injected by control/address/output consumers
	lastRead [pageVersions]interval.Cycle
	everRead [pageVersions]bool
}

// Graph accumulates versions during a simulation run and solves liveness
// afterwards.
//
// Versions are recorded into fixed-size pages, so recording never
// regrows or copies what it already recorded. Solve flattens the
// per-version results into exact-size slices and drops the pages, edges
// included: nothing reads them after Solve.
type Graph struct {
	n      int     // versions recorded, ground included
	pages  []*page // recording state; nil once solved
	solved bool

	// Solved state, one entry per version.
	live     []uint32
	lastRead []interval.Cycle
	everRead []bool
}

// NewGraph returns an empty graph. Version 0 (ground) is pre-allocated.
func NewGraph() *Graph {
	return &Graph{n: 1, pages: []*page{new(page)}}
}

// Len returns the number of versions, including ground.
func (g *Graph) Len() int { return g.n }

// New appends a version and returns its id. Dependencies must already
// exist (they always do in an execution-ordered trace).
func (g *Graph) New(t Transfer, aux uint32, deps ...VersionID) VersionID {
	return g.New2(t, aux, 0, deps...)
}

// New2 is New with both transfer parameters (for two-variable-operand
// TransferAnd / TransferOr).
func (g *Graph) New2(t Transfer, aux, aux2 uint32, deps ...VersionID) VersionID {
	if g.solved {
		panic("dataflow: graph already solved")
	}
	if len(deps) > maxDeps {
		panic("dataflow: too many dependencies")
	}
	v := Version{Transfer: t, NDeps: uint8(len(deps)), Aux: aux, Aux2: aux2}
	id := VersionID(g.n)
	for i, d := range deps {
		if d >= id {
			panic(fmt.Sprintf("dataflow: dep %d not older than version %d", d, id))
		}
		v.Deps[i] = d
	}
	o := g.n & pageMask
	if o == 0 {
		g.pages = append(g.pages, new(page))
	}
	g.pages[len(g.pages)-1].versions[o] = v
	g.n++
	return id
}

// at locates version id's recording page. It panics once the graph is
// solved (the pages are gone) or for an id never recorded.
func (g *Graph) at(id VersionID) (*page, int) {
	if g.solved {
		panic("dataflow: graph already solved")
	}
	if int(id) >= g.n {
		panic(fmt.Sprintf("dataflow: version %d not recorded (%d versions)", id, g.n))
	}
	return g.pages[id>>pageShift], int(id & pageMask)
}

// MarkRootLive records that bits in mask of version id are consumed by a
// conservatively-live consumer: a branch condition, a memory address,
// scalar code, or final program output.
func (g *Graph) MarkRootLive(id VersionID, mask uint32) {
	if id == 0 {
		return
	}
	p, o := g.at(id)
	p.rootLive[o] |= mask
}

// NoteRead records an architectural read of version id at the given
// cycle. This drives the microarchitectural (uarch) ACE analysis: a value
// read at cycle c is conservatively required up to c, regardless of
// whether the reading instruction turns out to be dynamically dead.
func (g *Graph) NoteRead(id VersionID, cycle interval.Cycle) {
	if id == 0 {
		return
	}
	p, o := g.at(id)
	p.everRead[o] = true
	if cycle > p.lastRead[o] {
		p.lastRead[o] = cycle
	}
}

// spreadDown returns the mask of bits at or below the highest set bit of
// m: the bits of an addend that can influence live sum bits via carries.
func spreadDown(m uint32) uint32 {
	if m == 0 {
		return 0
	}
	top := 31 - bits.LeadingZeros32(m)
	if top == 31 {
		return ^uint32(0)
	}
	return (uint32(1) << (top + 1)) - 1
}

// Solve computes liveness for every version. It may be called once; the
// graph is frozen afterwards.
func (g *Graph) Solve() {
	if g.solved {
		return
	}
	g.solved = true
	n := g.n
	g.live = make([]uint32, n)
	g.lastRead = make([]interval.Cycle, n)
	g.everRead = make([]bool, n)
	for i, p := range g.pages {
		lo := i << pageShift
		hi := min(lo+pageVersions, n)
		copy(g.live[lo:hi], p.rootLive[:hi-lo])
		copy(g.lastRead[lo:hi], p.lastRead[:hi-lo])
		copy(g.everRead[lo:hi], p.everRead[:hi-lo])
	}
	// Dependencies always have smaller ids, so a single descending pass
	// sees each version's full consumer-driven mask before propagating it.
	for id := n - 1; id >= 1; id-- {
		m := g.live[id]
		if m == 0 {
			continue
		}
		v := &g.pages[id>>pageShift].versions[id&pageMask]
		switch v.Transfer {
		case TransferNone:
		case TransferAll:
			for i := 0; i < int(v.NDeps); i++ {
				g.live[v.Deps[i]] |= ^uint32(0)
			}
		case TransferMove:
			for i := 0; i < int(v.NDeps); i++ {
				g.live[v.Deps[i]] |= m
			}
		case TransferArith:
			s := spreadDown(m)
			for i := 0; i < int(v.NDeps); i++ {
				g.live[v.Deps[i]] |= s
			}
		case TransferAnd:
			g.live[v.Deps[0]] |= m & v.Aux
			if v.NDeps > 1 {
				g.live[v.Deps[1]] |= m & v.Aux2
			}
		case TransferOr:
			g.live[v.Deps[0]] |= m &^ v.Aux
			if v.NDeps > 1 {
				g.live[v.Deps[1]] |= m &^ v.Aux2
			}
		case TransferShl:
			g.live[v.Deps[0]] |= m >> (v.Aux & 31)
			if v.NDeps > 1 && m != 0 {
				g.live[v.Deps[1]] |= 31
			}
		case TransferShr:
			g.live[v.Deps[0]] |= m << (v.Aux & 31)
			if v.NDeps > 1 && m != 0 {
				g.live[v.Deps[1]] |= 31
			}
		case TransferSelect:
			g.live[v.Deps[0]] |= m
			g.live[v.Deps[1]] |= 1
		case TransferByte:
			g.live[v.Deps[0]] |= (m & 0xFF) << (8 * (v.Aux & 3))
		case TransferAssemble:
			for i := 0; i < int(v.NDeps); i++ {
				g.live[v.Deps[i]] |= (m >> (8 * i)) & 0xFF
			}
		default:
			panic(fmt.Sprintf("dataflow: unknown transfer %d", v.Transfer))
		}
	}
	g.live[0] = 0
	g.pages = nil
}

// Live returns the solved live mask of version id: the bits whose
// corruption can reach program output. Solve must have been called.
func (g *Graph) Live(id VersionID) uint32 {
	if !g.solved {
		panic("dataflow: Solve not called")
	}
	return g.live[id]
}

// LiveByte returns the 8-bit live mask of byte index b (0..3) of version
// id's value.
func (g *Graph) LiveByte(id VersionID, b int) uint8 {
	return uint8(g.Live(id) >> (8 * (b & 3)))
}

// Dead reports whether version id is (transitively) dynamically dead: no
// bit of it influences program output.
func (g *Graph) Dead(id VersionID) bool { return g.Live(id) == 0 }

// EverRead reports whether version id was architecturally read.
func (g *Graph) EverRead(id VersionID) bool {
	if g.solved {
		return g.everRead[id]
	}
	p, o := g.at(id)
	return p.everRead[o]
}

// ReadAfter reports whether version id was architecturally read strictly
// after the given cycle. It drives dirty-eviction ACEness: a corrupted
// byte written back to memory matters only if that value is consumed
// later.
func (g *Graph) ReadAfter(id VersionID, cycle interval.Cycle) bool {
	if g.solved {
		return g.everRead[id] && g.lastRead[id] > cycle
	}
	p, o := g.at(id)
	return p.everRead[o] && p.lastRead[o] > cycle
}

// Stats summarizes the graph for reporting.
type Stats struct {
	Versions  int
	DeadCount int // versions never influencing output
}

// Stats returns summary statistics; Solve must have been called.
func (g *Graph) Stats() Stats {
	s := Stats{Versions: g.n - 1}
	for id := 1; id < g.n; id++ {
		if g.live[id] == 0 {
			s.DeadCount++
		}
	}
	return s
}

// Snapshot is the serializable post-solve state of a graph: everything
// AVF analysis consumes (live masks, read times), without the dependence
// edges.
type Snapshot struct {
	Live     []uint32
	LastRead []interval.Cycle
	EverRead []bool
}

// Solved returns the solved state without copying it: the slices are
// owned by the graph and must not be modified. Solve must have been
// called.
func (g *Graph) Solved() Snapshot {
	if !g.solved {
		panic("dataflow: Solved before Solve")
	}
	return Snapshot{Live: g.live, LastRead: g.lastRead, EverRead: g.everRead}
}

// Restore reconstructs a solved graph from a snapshot. The restored graph
// answers Live/ReadAfter/Dead queries; it cannot record new versions.
func Restore(s Snapshot) (*Graph, error) {
	return restore(Snapshot{
		Live:     append([]uint32(nil), s.Live...),
		LastRead: append([]interval.Cycle(nil), s.LastRead...),
		EverRead: append([]bool(nil), s.EverRead...),
	})
}

// Adopt is Restore without the defensive copy: the caller transfers
// ownership of the snapshot's slices to the graph and must not touch
// them afterwards. The artifact decoder uses it — its slices are
// freshly built per decode, and copying megabytes of liveness state
// would double the cost of reviving a stored run.
func Adopt(s Snapshot) (*Graph, error) { return restore(s) }

func restore(s Snapshot) (*Graph, error) {
	n := len(s.Live)
	if n == 0 || len(s.LastRead) != n || len(s.EverRead) != n {
		return nil, fmt.Errorf("dataflow: inconsistent snapshot (%d/%d/%d entries)",
			len(s.Live), len(s.LastRead), len(s.EverRead))
	}
	g := &Graph{
		n:        n,
		live:     s.Live,
		lastRead: s.LastRead,
		everRead: s.EverRead,
		solved:   true,
	}
	g.live[0] = 0
	return g, nil
}
