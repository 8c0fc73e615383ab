// Package mem provides the flat, byte-addressable memory backing the APU
// simulator. Memory holds the functional state (values) plus the dynamic
// dataflow version of every byte, so caches and the AVF infrastructure can
// associate the data resident in any SRAM slot with its liveness. Runs
// without a dataflow graph use an unversioned memory instead, in which
// every byte is at the ground version.
package mem

import (
	"encoding/binary"
	"fmt"

	"mbavf/internal/dataflow"
)

// Memory is the simulated physical memory.
type Memory struct {
	data []byte
	// version holds the byte versions in pages of verPageBytes bytes of
	// memory, a page allocated by the first store of a non-ground version
	// into it; a nil page reads as ground. Programs touch a few pages of
	// a memory of megabytes, so a flat array would be almost all ground.
	// version is nil when unversioned.
	version []*verPage
}

const (
	verPageShift = 12
	verPageBytes = 1 << verPageShift
)

// verPage holds the versions of verPageBytes bytes of memory.
type verPage [verPageBytes]dataflow.VersionID

// New returns a zeroed memory of size bytes. All bytes start at the ground
// version (0).
func New(size int) *Memory {
	return &Memory{
		data:    make([]byte, size),
		version: make([]*verPage, (size+verPageBytes-1)>>verPageShift),
	}
}

// NewUnversioned returns a zeroed memory of size bytes that keeps no
// per-byte versions: every byte reads as the ground version (0) and
// stores drop the versions they carry. It backs runs without a dataflow
// graph, where every version is ground anyway.
func NewUnversioned(size int) *Memory {
	return &Memory{data: make([]byte, size)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

func (m *Memory) check(addr uint32, n int) error {
	if int(addr)+n > len(m.data) {
		return fmt.Errorf("mem: access [%#x,%#x) beyond size %#x", addr, int(addr)+n, len(m.data))
	}
	return nil
}

// LoadByte returns the value and version of the byte at addr.
func (m *Memory) LoadByte(addr uint32) (byte, dataflow.VersionID, error) {
	if err := m.check(addr, 1); err != nil {
		return 0, 0, err
	}
	return m.data[addr], m.VersionAt(addr), nil
}

// StoreByte stores value v with version ver at addr.
func (m *Memory) StoreByte(addr uint32, v byte, ver dataflow.VersionID) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.data[addr] = v
	if m.version != nil {
		m.setVersion(addr, ver)
	}
	return nil
}

// LoadWord returns the little-endian 32-bit value at addr and the versions
// of its four bytes.
func (m *Memory) LoadWord(addr uint32) (uint32, [4]dataflow.VersionID, error) {
	var vers [4]dataflow.VersionID
	if err := m.check(addr, 4); err != nil {
		return 0, vers, err
	}
	if m.version != nil {
		for i := range vers {
			vers[i] = m.VersionAt(addr + uint32(i))
		}
	}
	return binary.LittleEndian.Uint32(m.data[addr : addr+4]), vers, nil
}

// StoreWord stores a little-endian 32-bit value at addr; vers supplies the
// version of each byte.
func (m *Memory) StoreWord(addr uint32, v uint32, vers [4]dataflow.VersionID) error {
	if err := m.check(addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.data[addr:addr+4], v)
	if m.version != nil {
		for i, ver := range vers {
			m.setVersion(addr+uint32(i), ver)
		}
	}
	return nil
}

// VersionAt returns the version of the byte at addr without bounds checks
// beyond the page table's own; it is used by caches when filling lines.
func (m *Memory) VersionAt(addr uint32) dataflow.VersionID {
	if m.version == nil {
		return 0
	}
	p := m.version[addr>>verPageShift]
	if p == nil {
		return 0
	}
	return p[addr&(verPageBytes-1)]
}

// setVersion sets the version of the byte at addr in a versioned memory,
// allocating its page unless the version is ground.
func (m *Memory) setVersion(addr uint32, ver dataflow.VersionID) {
	p := m.version[addr>>verPageShift]
	if p == nil {
		if ver == 0 {
			return
		}
		p = new(verPage)
		m.version[addr>>verPageShift] = p
	}
	p[addr&(verPageBytes-1)] = ver
}

// ByteAt returns the value of the byte at addr.
func (m *Memory) ByteAt(addr uint32) byte { return m.data[addr] }

// SetInput writes host-provided input data starting at addr, creating one
// fresh TransferNone version per byte in g so that input data flowing
// through caches participates in liveness analysis. If g is nil the bytes
// keep the ground version. An unversioned memory accepts only a nil g.
func (m *Memory) SetInput(g *dataflow.Graph, addr uint32, data []byte) error {
	if err := m.check(addr, len(data)); err != nil {
		return err
	}
	if m.version == nil && g != nil {
		return fmt.Errorf("mem: dataflow input into unversioned memory")
	}
	copy(m.data[addr:], data)
	if m.version == nil {
		return nil
	}
	for i := range data {
		var ver dataflow.VersionID
		if g != nil {
			ver = g.New(dataflow.TransferNone, 0)
		}
		m.setVersion(addr+uint32(i), ver)
	}
	return nil
}

// SetInputWords writes host-provided 32-bit values starting at addr, with
// per-byte input versions as in SetInput.
func (m *Memory) SetInputWords(g *dataflow.Graph, addr uint32, words []uint32) error {
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	return m.SetInput(g, addr, buf)
}

// Bytes returns a copy of the byte range [addr, addr+n); it is the host
// view used to compare program output against a golden result.
func (m *Memory) Bytes(addr uint32, n int) ([]byte, error) {
	if err := m.check(addr, n); err != nil {
		return nil, err
	}
	return append([]byte(nil), m.data[addr:int(addr)+n]...), nil
}

// Words returns n little-endian 32-bit values starting at addr.
func (m *Memory) Words(addr uint32, n int) ([]uint32, error) {
	b, err := m.Bytes(addr, 4*n)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

// MarkOutput marks the byte range [addr, addr+n) as final program output:
// the current version of every byte is root-live and counts as consumed at
// cycle end for uarch purposes.
func (m *Memory) MarkOutput(g *dataflow.Graph, addr uint32, n int, end uint64) error {
	if err := m.check(addr, n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		v := m.VersionAt(addr + uint32(i))
		g.MarkRootLive(v, 0xFF)
		g.NoteRead(v, end+1)
	}
	return nil
}
