package gpu

import (
	"errors"
	"strings"
	"testing"

	"mbavf/internal/cache"
	"mbavf/internal/dataflow"
	"mbavf/internal/lifetime"
	"mbavf/internal/mem"
)

func testRig(t *testing.T, withGraph bool) (*Machine, *mem.Memory, *dataflow.Graph) {
	t.Helper()
	var g *dataflow.Graph
	if withGraph {
		g = dataflow.NewGraph()
	}
	memory := mem.New(1 << 20)
	hier, err := cache.NewHierarchy(cache.DefaultHierConfig(), memory)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(), memory, hier)
	if err != nil {
		t.Fatal(err)
	}
	if withGraph {
		m.AttachGraph(g)
	}
	return m, memory, g
}

// buildVecAdd returns c[i] = a[i] + b[i] over one element per thread.
// Args: s0 = &a, s1 = &b, s2 = &c.
func buildVecAdd(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("vecadd")
	b.VMov(V(0), Tid())
	b.VShl(V(0), V(0), Imm(2)) // byte offset = tid*4
	b.VAdd(V(1), V(0), S(0))
	b.VLoad(V(2), V(1), 0) // a[i]
	b.VAdd(V(1), V(0), S(1))
	b.VLoad(V(3), V(1), 0) // b[i]
	b.VAdd(V(4), V(2), V(3))
	b.VAdd(V(1), V(0), S(2))
	b.VStore(V(1), 0, V(4))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderResolvesLabels(t *testing.T) {
	b := NewBuilder("loop")
	b.SMov(S(0), Imm(3))
	b.Label("top")
	b.SSub(S(0), S(0), Imm(1))
	b.Brnz(S(0), "top")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[2].Target != 1 {
		t.Errorf("branch target = %d, want 1", p.Code[2].Target)
	}
	if p.Code[len(p.Code)-1].Op != OpEndPgm {
		t.Error("Build should append EndPgm")
	}
}

func TestBuilderRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name  string
		build func(*Builder)
		want  string
	}{
		{"undefined label", func(b *Builder) { b.Br("nowhere") }, "undefined label"},
		{"else outside if", func(b *Builder) { b.Else() }, "ELSE outside IF"},
		{"unbalanced if", func(b *Builder) { b.IfVCC() }, "unbalanced IF"},
		{"double else", func(b *Builder) { b.IfVCC(); b.Else(); b.Else(); b.EndIf() }, "double ELSE"},
		{"imm branch cond", func(b *Builder) { b.Label("x"); b.Brz(Imm(0), "x") }, "scalar register condition"},
		{"negative reg", func(b *Builder) { b.VMov(V(-1), Imm(0)) }, "negative"},
	}
	for _, c := range cases {
		b := NewBuilder(c.name)
		c.build(b)
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestVecAddEndToEnd(t *testing.T) {
	m, memory, g := testRig(t, true)
	const n = 64 // 4 waves
	a := make([]uint32, n)
	bvals := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i * 3)
		bvals[i] = uint32(1000 - i)
	}
	var aAddr, bAddr, cAddr uint32 = 0x1000, 0x2000, 0x3000
	if err := memory.SetInputWords(g, aAddr, a); err != nil {
		t.Fatal(err)
	}
	if err := memory.SetInputWords(g, bAddr, bvals); err != nil {
		t.Fatal(err)
	}
	prog := buildVecAdd(t)
	err := m.RunDispatch(Dispatch{Prog: prog, Waves: n / Lanes, Args: []uint32{aAddr, bAddr, cAddr}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := memory.Words(cAddr, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if want := a[i] + bvals[i]; out[i] != want {
			t.Fatalf("c[%d] = %d, want %d", i, out[i], want)
		}
	}
	if m.Cycles() == 0 || m.Instructions() == 0 {
		t.Error("cycle/instruction counters not advancing")
	}
}

func TestDataflowLivenessThroughKernel(t *testing.T) {
	// Store a dead value and a live value; only the live one's input
	// should be live after marking outputs.
	m, memory, g := testRig(t, true)
	b := NewBuilder("deadstore")
	b.VMov(V(0), Tid())
	b.VShl(V(0), V(0), Imm(2))
	b.VAdd(V(1), V(0), S(0))
	b.VLoad(V(2), V(1), 0)     // load input
	b.VMul(V(3), V(2), Imm(7)) // live chain
	b.VAdd(V(4), V(0), S(1))
	b.VStore(V(4), 0, V(3)) // store to output
	b.VMul(V(5), V(2), Imm(9))
	b.VAdd(V(6), V(0), S(2))
	b.VStore(V(6), 0, V(5)) // store to scratch (never marked output)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var in, out, scratch uint32 = 0x1000, 0x2000, 0x3000
	vals := make([]uint32, Lanes)
	for i := range vals {
		vals[i] = uint32(i)
	}
	if err := memory.SetInputWords(g, in, vals); err != nil {
		t.Fatal(err)
	}
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{in, out, scratch}}); err != nil {
		t.Fatal(err)
	}
	m.Finish()
	if err := memory.MarkOutput(g, out, Lanes*4, m.Cycles()); err != nil {
		t.Fatal(err)
	}
	g.Solve()
	// The input bytes must be live (they flow to output), and the scratch
	// bytes' versions dead.
	if g.Live(memory.VersionAt(in)) == 0 {
		t.Error("input byte should be live through output chain")
	}
	if g.Live(memory.VersionAt(scratch)) != 0 {
		t.Error("scratch store should be dead")
	}
	if g.Stats().DeadCount == 0 {
		t.Error("expected some dead versions")
	}
}

func TestDivergenceIfElse(t *testing.T) {
	// Even lanes get 100, odd lanes get 200.
	m, memory, _ := testRig(t, false)
	b := NewBuilder("diverge")
	b.VMov(V(0), LaneID())
	b.VAnd(V(1), V(0), Imm(1))
	b.VCmp(OpVCmpEQ, V(1), Imm(0))
	b.IfVCC()
	b.VMov(V(2), Imm(100))
	b.Else()
	b.VMov(V(2), Imm(200))
	b.EndIf()
	b.VShl(V(3), V(0), Imm(2))
	b.VAdd(V(3), V(3), S(0))
	b.VStore(V(3), 0, V(2))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{0x4000}}); err != nil {
		t.Fatal(err)
	}
	out, _ := memory.Words(0x4000, Lanes)
	for i, v := range out {
		want := uint32(100)
		if i%2 == 1 {
			want = 200
		}
		if v != want {
			t.Errorf("lane %d = %d, want %d", i, v, want)
		}
	}
}

func TestScalarLoop(t *testing.T) {
	// Sum 1..10 in a scalar register, broadcast to memory.
	m, memory, _ := testRig(t, false)
	b := NewBuilder("loop")
	b.SMov(S(1), Imm(0))  // acc
	b.SMov(S(2), Imm(10)) // counter
	b.Label("top")
	b.SAdd(S(1), S(1), S(2))
	b.SSub(S(2), S(2), Imm(1))
	b.Brnz(S(2), "top")
	b.VMov(V(0), S(1))
	b.VShl(V(1), LaneID(), Imm(2))
	b.VAdd(V(1), V(1), S(0))
	b.VStore(V(1), 0, V(0))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{0x100}}); err != nil {
		t.Fatal(err)
	}
	out, _ := memory.Words(0x100, Lanes)
	for i, v := range out {
		if v != 55 {
			t.Fatalf("lane %d = %d, want 55", i, v)
		}
	}
}

func TestByteLoadStore(t *testing.T) {
	m, memory, g := testRig(t, true)
	if err := memory.SetInput(g, 0x1000, []byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160}); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("bytes")
	b.VAdd(V(0), LaneID(), S(0))
	b.VLoadB(V(1), V(0), 0)
	b.VAdd(V(1), V(1), Imm(1))
	b.VAdd(V(2), LaneID(), S(1))
	b.VStoreB(V(2), 0, V(1))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{0x1000, 0x2000}}); err != nil {
		t.Fatal(err)
	}
	out, _ := memory.Bytes(0x2000, Lanes)
	for i, v := range out {
		if want := byte(10*(i+1) + 1); v != want {
			t.Errorf("byte %d = %d, want %d", i, v, want)
		}
	}
}

func TestFloatOps(t *testing.T) {
	m, memory, _ := testRig(t, false)
	b := NewBuilder("float")
	b.VMov(V(0), ImmF(2.0))
	b.VMov(V(1), ImmF(3.5))
	b.VFMul(V(2), V(0), V(1))    // 7.0
	b.VFAdd(V(2), V(2), ImmF(1)) // 8.0
	b.VFSqrt(V(3), V(2))         // ~2.828
	b.VFDiv(V(4), V(3), V(0))    // ~1.414
	b.VShl(V(5), LaneID(), Imm(2))
	b.VAdd(V(5), V(5), S(0))
	b.VStore(V(5), 0, V(4))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{0x800}}); err != nil {
		t.Fatal(err)
	}
	out, _ := memory.Words(0x800, 1)
	got := f32from(out[0])
	if got < 1.41 || got > 1.42 {
		t.Errorf("float chain result = %v, want ~1.4142", got)
	}
}

func TestVGPRTrackerRecordsLifetimes(t *testing.T) {
	m, memory, _ := testRig(t, false)
	cfg := m.Config()
	tr := lifetime.NewTracker(cfg.VGPRThreads()*cfg.NumVRegs, 4)
	m.TrackVGPR(0, tr)
	prog := buildVecAdd(t)
	vals := make([]uint32, Lanes)
	if err := memory.SetInputWords(nil, 0x1000, vals); err != nil {
		t.Fatal(err)
	}
	if err := memory.SetInputWords(nil, 0x2000, vals); err != nil {
		t.Fatal(err)
	}
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{0x1000, 0x2000, 0x3000}}); err != nil {
		t.Fatal(err)
	}
	m.Finish()
	if tr.SegmentCount() == 0 {
		t.Fatal("VGPR tracker recorded nothing")
	}
	// v0 of thread 0 (slot 0, lane 0): written then read several times.
	word := 0*cfg.NumVRegs + 0
	segs := tr.Segments(word, 0)
	if len(segs) < 2 {
		t.Fatalf("v0 lane0 segments = %+v, want write->read chains", segs)
	}
	if segs[0].Kind != lifetime.SegACE {
		t.Errorf("first v0 segment should be ACE (read soon after write), got %v", segs[0].Kind)
	}
}

func TestInjectionFlipsRegister(t *testing.T) {
	// Flip bit 5 of v2 (the loaded a[i]) in thread 0 before it is consumed;
	// output must differ by 32 for element 0 only.
	prog := func(t *testing.T) *Program { return buildVecAdd(t) }(t)
	run := func(inject bool) []uint32 {
		m, memory, _ := testRig(t, false)
		a := make([]uint32, Lanes)
		b := make([]uint32, Lanes)
		if err := memory.SetInputWords(nil, 0x1000, a); err != nil {
			t.Fatal(err)
		}
		if err := memory.SetInputWords(nil, 0x2000, b); err != nil {
			t.Fatal(err)
		}
		if inject {
			m.AddInjection(Injection{Cycle: 0, CU: 0, Thread: 0, Reg: 2, Mask: 1 << 5})
		}
		if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{0x1000, 0x2000, 0x3000}}); err != nil {
			t.Fatal(err)
		}
		out, _ := memory.Words(0x3000, Lanes)
		return out
	}
	clean := run(false)
	faulty := run(true)
	if clean[0] == faulty[0] {
		t.Skip("injection landed before the register write; covered by campaign tests")
	}
	for i := 1; i < Lanes; i++ {
		if clean[i] != faulty[i] {
			t.Errorf("element %d disturbed: %d vs %d", i, clean[i], faulty[i])
		}
	}
}

func TestInjectionIntoEmptySlotMasked(t *testing.T) {
	m, memory, _ := testRig(t, false)
	// Thread 255 = slot 15: beyond WaveSlotsPerCU(4)*16 threads? thread 255
	// -> slot 15, which exceeds the 4 slots: dropped silently.
	m.AddInjection(Injection{Cycle: 0, CU: 0, Thread: 255, Reg: 0, Mask: 1})
	prog := buildVecAdd(t)
	if err := memory.SetInputWords(nil, 0x1000, make([]uint32, Lanes)); err != nil {
		t.Fatal(err)
	}
	if err := memory.SetInputWords(nil, 0x2000, make([]uint32, Lanes)); err != nil {
		t.Fatal(err)
	}
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{0x1000, 0x2000, 0x3000}}); err != nil {
		t.Fatal(err)
	}
	out, _ := memory.Words(0x3000, Lanes)
	for i, v := range out {
		if v != 0 {
			t.Errorf("element %d = %d, want 0", i, v)
		}
	}
}

// understatedProgram stores tid into out[tid] through v5 and v7 while
// declaring a budget of one vector register: only its code says which
// registers it names.
func understatedProgram() *Program {
	return &Program{Name: "understated", NumVRegs: 1, NumSRegs: 1, Code: []Instr{
		{Op: OpVMov, Dst: V(5), Src: [3]Operand{Tid()}},
		{Op: OpVShl, Dst: V(7), Src: [3]Operand{V(5), Imm(2)}},
		{Op: OpVAdd, Dst: V(7), Src: [3]Operand{V(7), S(0)}},
		{Op: OpVStore, Src: [3]Operand{V(7), Imm(0), V(5)}},
		{Op: OpEndPgm},
	}}
}

func TestNamesVRegReadsCode(t *testing.T) {
	p := understatedProgram()
	for reg, want := range map[int]bool{0: false, 1: false, 5: true, 6: false, 7: true} {
		if got := p.NamesVReg(reg); got != want {
			t.Errorf("NamesVReg(%d) = %v, want %v", reg, got, want)
		}
	}
}

func TestStopWhenInert(t *testing.T) {
	vecadd := buildVecAdd(t) // names v0..v4
	cases := []struct {
		name  string
		prog  *Program
		inj   Injection
		inert bool
	}{
		{"empty wave slot", vecadd, Injection{Cycle: 2, Thread: Lanes, Reg: 2, Mask: 1}, true},
		{"outside the register file", vecadd, Injection{Cycle: 2, Thread: 255, Reg: 2, Mask: 1}, true},
		{"register the program never names", vecadd, Injection{Cycle: 2, Thread: 3, Reg: 31, Mask: 1}, true},
		{"register the program names", vecadd, Injection{Cycle: 2, Thread: 3, Reg: 2, Mask: 1}, false},
		{"register beyond the declared budget", understatedProgram(), Injection{Cycle: 2, Thread: 3, Reg: 5, Mask: 1}, false},
	}
	for _, tc := range cases {
		m, memory, _ := testRig(t, false)
		for _, addr := range []uint32{0x1000, 0x2000} {
			if err := memory.SetInputWords(nil, addr, make([]uint32, Lanes)); err != nil {
				t.Fatal(err)
			}
		}
		m.AddInjection(tc.inj)
		m.StopWhenInert()
		d := Dispatch{Prog: tc.prog, Waves: 1, Args: []uint32{0x1000, 0x2000, 0x3000}}
		if tc.prog != vecadd {
			d.Args = []uint32{0x3000}
		}
		err := m.RunDispatch(d)
		if m.Inert() != tc.inert {
			t.Errorf("%s: Inert() = %v, want %v", tc.name, m.Inert(), tc.inert)
		}
		if !tc.inert {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrInert) {
			t.Errorf("%s: err = %v, want ErrInert", tc.name, err)
		}
		if m.Instructions() >= uint64(len(vecadd.Code)) {
			t.Errorf("%s: ran %d instructions after the inert flip", tc.name, m.Instructions())
		}
		if err := m.RunDispatch(d); !errors.Is(err, ErrInert) {
			t.Errorf("%s: dispatch after the stop: err = %v, want ErrInert", tc.name, err)
		}
	}
}

func TestProgramsListsDistinctDispatches(t *testing.T) {
	m, _, _ := testRig(t, false)
	vecadd, other := buildVecAdd(t), understatedProgram()
	for _, p := range []*Program{vecadd, other, vecadd} {
		args := []uint32{0x1000, 0x2000, 0x3000}
		if err := m.RunDispatch(Dispatch{Prog: p, Waves: 1, Args: args}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Programs(); len(got) != 2 || got[0] != vecadd || got[1] != other {
		t.Errorf("Programs() = %v, want [vecadd understated]", got)
	}
}

func TestTrapOnBadAddress(t *testing.T) {
	m, _, _ := testRig(t, false)
	b := NewBuilder("wild")
	b.VMov(V(0), Imm(-64)) // huge unsigned address
	b.VLoad(V(1), V(0), 0)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunDispatch(Dispatch{Prog: prog, Waves: 1})
	if err == nil {
		t.Fatal("wild load should trap")
	}
	var trap *TrapError
	if !errors.As(err, &trap) || trap.Kind != TrapBadAddress {
		t.Fatalf("err = %v, want TrapBadAddress", err)
	}
}

func TestTrapOnMisalignedLoad(t *testing.T) {
	m, _, _ := testRig(t, false)
	b := NewBuilder("misaligned")
	b.VMov(V(0), Imm(2))
	b.VLoad(V(1), V(0), 0)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunDispatch(Dispatch{Prog: prog, Waves: 1})
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("err = %v, want misaligned trap", err)
	}
	var trap *TrapError
	if !errors.As(err, &trap) || trap.Kind != TrapMisaligned {
		t.Fatalf("err = %v, want TrapMisaligned", err)
	}
}

func TestInstructionBudgetTrap(t *testing.T) {
	memory := mem.New(1 << 12)
	hier, err := cache.NewHierarchy(cache.DefaultHierConfig(), memory)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInstructions = 100
	m, err := New(cfg, memory, hier)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("spin")
	b.Label("top")
	b.Br("top")
	prog, _ := b.Build()
	err = m.RunDispatch(Dispatch{Prog: prog, Waves: 1})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want budget trap", err)
	}
	var trap *TrapError
	if !errors.As(err, &trap) || trap.Kind != TrapBudget {
		t.Fatalf("err = %v, want TrapBudget", err)
	}
}

func TestMultiWaveMultiCU(t *testing.T) {
	m, memory, _ := testRig(t, false)
	const waves = 20 // exceeds 16 slots: tests queueing and slot reuse
	n := waves * Lanes
	a := make([]uint32, n)
	bv := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
		bv[i] = uint32(2 * i)
	}
	if err := memory.SetInputWords(nil, 0x10000, a); err != nil {
		t.Fatal(err)
	}
	if err := memory.SetInputWords(nil, 0x20000, bv); err != nil {
		t.Fatal(err)
	}
	prog := buildVecAdd(t)
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: waves, Args: []uint32{0x10000, 0x20000, 0x30000}}); err != nil {
		t.Fatal(err)
	}
	out, _ := memory.Words(0x30000, n)
	for i := range out {
		if out[i] != uint32(3*i) {
			t.Fatalf("c[%d] = %d, want %d", i, out[i], 3*i)
		}
	}
}

func TestCmpAndCndMask(t *testing.T) {
	// dst = max(lane, 7) via compare+select.
	m, memory, _ := testRig(t, false)
	b := NewBuilder("select")
	b.VMov(V(0), LaneID())
	b.VCmp(OpVCmpGT, V(0), Imm(7))
	b.VCndMask(V(1), V(0), Imm(7)) // vcc ? lane : 7
	b.VShl(V(2), LaneID(), Imm(2))
	b.VAdd(V(2), V(2), S(0))
	b.VStore(V(2), 0, V(1))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunDispatch(Dispatch{Prog: prog, Waves: 1, Args: []uint32{0x100}}); err != nil {
		t.Fatal(err)
	}
	out, _ := memory.Words(0x100, Lanes)
	for i, v := range out {
		want := uint32(max(i, 7))
		if v != want {
			t.Errorf("lane %d = %d, want %d", i, v, want)
		}
	}
}
