package mbavf

import (
	"math"
	"testing"
)

const saxpyAsm = `
; y[i] = a*x[i] + y[i], a in s2 (float bits); s0=&x, s1=&y
v_mov   v0, tid
v_shl   v0, v0, 2
v_add   v1, v0, s0
v_load  v2, [v1]        ; x[i]
v_add   v3, v0, s1
v_load  v4, [v3]        ; y[i]
v_mov   v5, s2
v_fmad  v6, v5, v2, v4  ; a*x + y
v_store [v3], v6
s_endpgm
`

func TestCustomWorkloadEndToEnd(t *testing.T) {
	k, err := AssembleKernel("saxpy", saxpyAsm)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name() != "saxpy" {
		t.Errorf("name = %q", k.Name())
	}
	if k.Disassemble() == "" {
		t.Error("empty disassembly")
	}
	c, err := NewCustom()
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	x := make([]uint32, n)
	y := make([]uint32, n)
	for i := range x {
		x[i] = fbits(float32(i))
		y[i] = fbits(float32(2 * i))
	}
	xAddr := c.Input(x)
	yAddr := c.Input(y)
	c.MarkOutput(yAddr, n)
	c.Dispatch(k, n/16, xAddr, yAddr, fbits(3))
	run, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.ReadWords(yAddr, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		want := float32(3)*float32(i) + float32(2*i)
		if ffrom(v) != want {
			t.Fatalf("y[%d] = %v, want %v", i, ffrom(v), want)
		}
	}
	// The custom run is analyzable like any bundled workload.
	avf, err := run.AVF(L1, Parity, Interleaving{Style: StyleLogical, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if avf.Groups == 0 {
		t.Error("no fault groups analyzed")
	}
	vavf, err := run.AVF(VGPR, Parity, Interleaving{Style: StyleInterThread, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vavf.SBAVF <= 0 {
		t.Error("custom kernel should produce VGPR ACE time")
	}
}

func TestCustomErrorPropagation(t *testing.T) {
	c, err := NewCustom()
	if err != nil {
		t.Fatal(err)
	}
	c.Dispatch(Kernel{}, 1) // zero kernel: recorded error
	c.Input([]uint32{1})    // no-op after error
	if _, err := c.Finish(); err == nil {
		t.Error("Finish should surface the recorded error")
	}
}

func TestCustomUseAfterFinish(t *testing.T) {
	k, err := AssembleKernel("noop", "v_mov v0, 1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCustom()
	if err != nil {
		t.Fatal(err)
	}
	c.Output(1)
	c.Dispatch(k, 1)
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	c.Dispatch(k, 1)
	if _, err := c.Finish(); err == nil {
		t.Error("use after Finish should error")
	}
}

func TestAssembleKernelError(t *testing.T) {
	if _, err := AssembleKernel("bad", "v_frobnicate v0"); err == nil {
		t.Error("bad source should fail")
	}
}

func fbits(f float32) uint32 { return math.Float32bits(f) }
func ffrom(b uint32) float32 { return math.Float32frombits(b) }
