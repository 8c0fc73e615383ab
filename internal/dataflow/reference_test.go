package dataflow

import (
	"fmt"

	"mbavf/internal/interval"
)

// refGraph is the test oracle for Graph: the straightforward recorder
// that appends every version to four parallel flat slices and solves in
// place over them. The paged recorder must answer every query exactly
// as it does.
type refGraph struct {
	versions []Version
	rootLive []uint32
	lastRead []interval.Cycle
	everRead []bool
	live     []uint32
	solved   bool
}

func newRefGraph() *refGraph {
	return &refGraph{
		versions: []Version{{Transfer: TransferNone}},
		rootLive: []uint32{0},
		lastRead: []interval.Cycle{0},
		everRead: []bool{false},
	}
}

func (g *refGraph) Len() int { return len(g.versions) }

func (g *refGraph) New2(t Transfer, aux, aux2 uint32, deps ...VersionID) VersionID {
	v := Version{Transfer: t, NDeps: uint8(len(deps)), Aux: aux, Aux2: aux2}
	id := VersionID(len(g.versions))
	for i, d := range deps {
		if d >= id {
			panic(fmt.Sprintf("reference: dep %d not older than version %d", d, id))
		}
		v.Deps[i] = d
	}
	g.versions = append(g.versions, v)
	g.rootLive = append(g.rootLive, 0)
	g.lastRead = append(g.lastRead, 0)
	g.everRead = append(g.everRead, false)
	return id
}

func (g *refGraph) MarkRootLive(id VersionID, mask uint32) {
	if id != 0 {
		g.rootLive[id] |= mask
	}
}

func (g *refGraph) NoteRead(id VersionID, cycle interval.Cycle) {
	if id == 0 {
		return
	}
	g.everRead[id] = true
	if cycle > g.lastRead[id] {
		g.lastRead[id] = cycle
	}
}

func (g *refGraph) Solve() {
	g.solved = true
	g.live = append([]uint32(nil), g.rootLive...)
	for id := len(g.versions) - 1; id >= 1; id-- {
		m := g.live[id]
		if m == 0 {
			continue
		}
		v := &g.versions[id]
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
		}
	}
	g.live[0] = 0
}

func (g *refGraph) EverRead(id VersionID) bool { return g.everRead[id] }

func (g *refGraph) ReadAfter(id VersionID, cycle interval.Cycle) bool {
	return g.everRead[id] && g.lastRead[id] > cycle
}
