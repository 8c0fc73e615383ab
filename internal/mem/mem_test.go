package mem

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mbavf/internal/dataflow"
)

func TestLoadStoreWordRoundTrip(t *testing.T) {
	m := New(64)
	vers := [4]dataflow.VersionID{1, 2, 3, 4}
	if err := m.StoreWord(8, 0xDEADBEEF, vers); err != nil {
		t.Fatal(err)
	}
	v, gotVers, err := m.LoadWord(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Errorf("value = %#x", v)
	}
	if gotVers != vers {
		t.Errorf("versions = %v, want %v", gotVers, vers)
	}
	// Little-endian byte order.
	if b, _, _ := m.LoadByte(8); b != 0xEF {
		t.Errorf("byte 0 = %#x, want 0xEF", b)
	}
	if b, _, _ := m.LoadByte(11); b != 0xDE {
		t.Errorf("byte 3 = %#x, want 0xDE", b)
	}
}

func TestBoundsChecks(t *testing.T) {
	m := New(8)
	if _, _, err := m.LoadWord(6); err == nil {
		t.Error("LoadWord straddling the end should fail")
	}
	if err := m.StoreByte(8, 1, 0); err == nil {
		t.Error("StoreByte past the end should fail")
	}
	if _, err := m.Bytes(4, 5); err == nil {
		t.Error("Bytes past the end should fail")
	}
}

func TestSetInputCreatesVersions(t *testing.T) {
	g := dataflow.NewGraph()
	m := New(16)
	if err := m.SetInput(g, 4, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v0 := m.VersionAt(4)
	v1 := m.VersionAt(5)
	if v0 == 0 || v1 == 0 || v0 == v1 {
		t.Errorf("input versions = %d,%d, want distinct non-ground", v0, v1)
	}
	if m.VersionAt(7) != 0 {
		t.Error("untouched byte should keep ground version")
	}
	if m.ByteAt(5) != 2 {
		t.Errorf("value = %d, want 2", m.ByteAt(5))
	}
}

func TestSetInputNilGraph(t *testing.T) {
	m := New(8)
	if err := m.SetInput(nil, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if m.VersionAt(0) != 0 {
		t.Error("nil graph input should use ground version")
	}
}

func TestSetInputWordsAndWords(t *testing.T) {
	g := dataflow.NewGraph()
	m := New(64)
	in := []uint32{10, 20, 30}
	if err := m.SetInputWords(g, 16, in); err != nil {
		t.Fatal(err)
	}
	out, err := m.Words(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("word %d = %d, want %d", i, out[i], in[i])
		}
	}
}

func TestMarkOutputMarksLiveAndConsumed(t *testing.T) {
	g := dataflow.NewGraph()
	m := New(16)
	ver := g.New(dataflow.TransferNone, 0)
	if err := m.StoreByte(3, 0xAB, ver); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkOutput(g, 3, 1, 100); err != nil {
		t.Fatal(err)
	}
	g.Solve()
	if g.Live(ver) != 0xFF {
		t.Errorf("output byte live = %#x, want 0xFF", g.Live(ver))
	}
	if !g.ReadAfter(ver, 100) {
		t.Error("output version should count as consumed after end")
	}
}

func TestUnversionedMemoryIsGround(t *testing.T) {
	m := NewUnversioned(16)
	if err := m.StoreWord(4, 0xDEADBEEF, [4]dataflow.VersionID{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreByte(9, 0x7A, 5); err != nil {
		t.Fatal(err)
	}
	v, vers, err := m.LoadWord(4)
	if err != nil || v != 0xDEADBEEF || vers != [4]dataflow.VersionID{} {
		t.Errorf("LoadWord = %#x, %v, %v; want the value at ground versions", v, vers, err)
	}
	b, ver, err := m.LoadByte(9)
	if err != nil || b != 0x7A || ver != 0 {
		t.Errorf("LoadByte = %#x, %d, %v; want the value at the ground version", b, ver, err)
	}
	if err := m.SetInput(nil, 12, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	for addr := uint32(0); addr < 16; addr++ {
		if m.VersionAt(addr) != 0 {
			t.Errorf("VersionAt(%d) = %d, want ground", addr, m.VersionAt(addr))
		}
	}
	if m.ByteAt(13) != 2 {
		t.Errorf("input byte = %d, want 2", m.ByteAt(13))
	}
	if _, _, err := m.LoadWord(14); err == nil {
		t.Error("LoadWord straddling the end should fail")
	}
	if err := m.SetInput(dataflow.NewGraph(), 0, []byte{1}); err == nil {
		t.Error("dataflow input into unversioned memory should fail")
	}
}

// TestVersionPagesMatchFlat drives a versioned memory and a flat
// per-byte version array with the same random stores, including ground
// stores into untouched pages and words straddling a page boundary, and
// checks every version after each step.
func TestVersionPagesMatchFlat(t *testing.T) {
	const size = 3*verPageBytes + 8 // a partial last page
	m := New(size)
	flat := make([]dataflow.VersionID, size)
	rng := rand.New(rand.NewSource(1))
	ver := func() dataflow.VersionID {
		if rng.Intn(3) == 0 {
			return 0
		}
		return dataflow.VersionID(rng.Intn(1000) + 1)
	}
	addr := func(n int) uint32 {
		if rng.Intn(4) == 0 { // near a page boundary
			b := verPageBytes * (1 + rng.Intn(size/verPageBytes))
			return uint32(min(b-rng.Intn(n), size-n))
		}
		return uint32(rng.Intn(size - n + 1))
	}
	for step := 0; step < 2000; step++ {
		switch rng.Intn(3) {
		case 0:
			a, v := addr(1), ver()
			if err := m.StoreByte(a, 1, v); err != nil {
				t.Fatal(err)
			}
			flat[a] = v
		case 1:
			a := addr(4)
			vers := [4]dataflow.VersionID{ver(), ver(), ver(), ver()}
			if err := m.StoreWord(a, 1, vers); err != nil {
				t.Fatal(err)
			}
			copy(flat[a:], vers[:])
		case 2:
			a := addr(4)
			_, vers, err := m.LoadWord(a)
			if err != nil {
				t.Fatal(err)
			}
			if want := [4]dataflow.VersionID(flat[a : a+4]); vers != want {
				t.Fatalf("step %d: LoadWord(%d) versions = %v, want %v", step, a, vers, want)
			}
		}
	}
	for a := range flat {
		if got := m.VersionAt(uint32(a)); got != flat[a] {
			t.Fatalf("VersionAt(%d) = %d, want %d", a, got, flat[a])
		}
	}
}

// TestVersionPagesAllocatedOnDemand checks that a versioned memory
// allocates version storage only for pages holding a non-ground version.
func TestVersionPagesAllocatedOnDemand(t *testing.T) {
	const size = 1 << 22
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(size)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > size+size/64 {
		t.Errorf("New(%d) allocates %d bytes; want the data plus a page table", size, got)
	}
	if err := m.StoreWord(verPageBytes-2, 7, [4]dataflow.VersionID{0, 0, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInput(nil, 5*verPageBytes, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	var pages []int
	for i, p := range m.version {
		if p != nil {
			pages = append(pages, i)
		}
	}
	if !slices.Equal(pages, []int{1}) {
		t.Errorf("allocated version pages %v, want [1]: only the page of the non-ground versions", pages)
	}
}
