package mbavf_test

import (
	"context"
	"fmt"
	"log"

	"mbavf"
)

// ExampleRunWorkloadContext measures the multi-bit vulnerability of the L1 cache
// under two interleaving styles for the matmul workload. The simulator is
// fully deterministic, so the printed values are stable.
func ExampleRunWorkloadContext() {
	run, err := mbavf.RunWorkloadContext(context.Background(), "matmul")
	if err != nil {
		log.Fatal(err)
	}
	for _, style := range []mbavf.Style{mbavf.StyleLogical, mbavf.StyleWayPhysical} {
		avf, err := run.AVF(mbavf.L1, mbavf.Parity, mbavf.Interleaving{Style: style, Factor: 2}, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: 2x1 MB-AVF is %.2fx the single-bit AVF\n", style, avf.DUE/avf.SBAVF)
	}
	// Output:
	// logical: 2x1 MB-AVF is 1.00x the single-bit AVF
	// way-physical: 2x1 MB-AVF is 1.94x the single-bit AVF
}

// ExampleAssembleKernel builds a custom kernel, runs it, and reads the
// result back.
func ExampleAssembleKernel() {
	kernel, err := mbavf.AssembleKernel("triple", `
v_mov   v0, tid
v_mul   v1, v0, 3
v_shl   v2, v0, 2
v_add   v2, v2, s0
v_store [v2], v1
s_endpgm
`)
	if err != nil {
		log.Fatal(err)
	}
	c, err := mbavf.NewCustom()
	if err != nil {
		log.Fatal(err)
	}
	out := c.Output(16)
	c.Dispatch(kernel, 1, out)
	if _, err := c.Finish(); err != nil {
		log.Fatal(err)
	}
	words, err := c.ReadWords(out, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(words)
	// Output:
	// [0 3 6 9]
}

// ExampleScheme_CheckBitOverhead reproduces the paper's protection-cost
// comparison for 32-bit registers.
func ExampleScheme_CheckBitOverhead() {
	for _, s := range []mbavf.Scheme{mbavf.Parity, mbavf.SECDED} {
		o, err := s.CheckBitOverhead(32)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %.1f%%\n", s, 100*o)
	}
	// Output:
	// parity: 3.1%
	// sec-ded: 21.9%
}
