// Custom kernel: analyze the multi-bit vulnerability of your own GPU
// kernel, written in the library's assembler syntax.
//
// The kernel below is a blocked dot product: each thread accumulates a
// strided slice of two vectors, writing one partial sum. We then measure
// how its register and cache footprints respond to protection choices.
package main

import (
	"fmt"
	"log"
	"math"

	"mbavf"
)

const dotAsm = `
; partial dot product: out[t] = sum over i of x[t*K+i]*y[t*K+i]
; args: s0=&x, s1=&y, s2=&out, s3=K (elements per thread)
v_mov   v0, tid
v_mov   v1, s3
v_mul   v1, v0, v1       ; first element index
v_shl   v1, v1, 2
v_add   v2, v1, s0       ; x walker
v_add   v3, v1, s1       ; y walker
v_mov   v4, 0.0f         ; acc
s_mov   s4, s3
loop:
v_load  v5, [v2]
v_load  v6, [v3]
v_fmad  v4, v5, v6, v4
v_add   v2, v2, 4
v_add   v3, v3, 4
s_sub   s4, s4, 1
s_brnz  s4, loop
v_shl   v7, v0, 2
v_add   v7, v7, s2
v_store [v7], v4
s_endpgm
`

func main() {
	kernel, err := mbavf.AssembleKernel("dot", dotAsm)
	if err != nil {
		log.Fatal(err)
	}

	const (
		threads = 256
		perThr  = 16
		n       = threads * perThr
	)
	c, err := mbavf.NewCustom()
	if err != nil {
		log.Fatal(err)
	}
	x := make([]uint32, n)
	y := make([]uint32, n)
	for i := range x {
		x[i] = fbits(float32(i%97) / 97)
		y[i] = fbits(float32(i%53) / 53)
	}
	xAddr := c.Input(x)
	yAddr := c.Input(y)
	outAddr := c.Output(threads)
	c.Dispatch(kernel, threads/16, xAddr, yAddr, outAddr, perThr)
	run, err := c.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dot kernel: %d cycles, %d instructions\n\n", run.Cycles(), run.Instructions())

	fmt.Println("L1 vulnerability of the custom kernel (2x1 faults):")
	for _, style := range []mbavf.Style{mbavf.StyleLogical, mbavf.StyleWayPhysical, mbavf.StyleIndexPhysical} {
		avf, err := run.AVF(mbavf.L1, mbavf.Parity, mbavf.Interleaving{Style: style, Factor: 2}, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s DUE MB-AVF %.4f (%.2fx SB-AVF %.4f)\n",
			style, avf.DUE, ratio(avf.DUE, avf.SBAVF), avf.SBAVF)
	}

	fmt.Println("\nVGPR SER under candidate protections (Table III rates):")
	for _, cfg := range []struct {
		scheme mbavf.Scheme
		style  mbavf.Style
	}{
		{mbavf.Parity, mbavf.StyleIntraThread},
		{mbavf.Parity, mbavf.StyleInterThread},
		{mbavf.SECDED, mbavf.StyleInterThread},
	} {
		ser, err := run.SER(mbavf.VGPR, cfg.scheme, mbavf.Interleaving{Style: cfg.style, Factor: 2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %-14s SDC %.4f  DUE %.4f\n", cfg.scheme, cfg.style, ser.SDC, ser.DUE)
	}
}

func fbits(f float32) uint32 { return math.Float32bits(f) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
