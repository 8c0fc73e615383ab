// Interleaving study: compare logical, way-physical and index-physical
// bit interleaving on the L1 cache across workloads and fault-mode sizes —
// the design-space exploration behind the paper's Figures 4 and 6.
//
// The study demonstrates ACE locality: bits written and read together
// (the same cache line) are ACE together, so interleaving a line with
// itself (logical) keeps a multi-bit fault's MB-AVF near the 1x floor,
// while interleaving different lines (physical) pushes it toward the Mx
// ceiling.
package main

import (
	"context"
	"fmt"
	"log"

	"mbavf"
)

func main() {
	workloadSet := []string{"minife", "matmul", "srad", "comd", "histogram"}
	styles := []mbavf.Style{mbavf.StyleLogical, mbavf.StyleWayPhysical, mbavf.StyleIndexPhysical}

	fmt.Println("2x1 DUE MB-AVF / SB-AVF in the L1 cache, parity, x2 interleaving")
	fmt.Printf("%-12s %10s %12s %12s %12s\n", "workload", "SB-AVF", "logical", "way-phys", "index-phys")
	for _, name := range workloadSet {
		run, err := mbavf.RunWorkloadContext(context.Background(), name)
		if err != nil {
			log.Fatal(err)
		}
		row := make([]float64, len(styles))
		var sb float64
		for i, style := range styles {
			avf, err := run.AVF(mbavf.L1, mbavf.Parity, mbavf.Interleaving{Style: style, Factor: 2}, 2)
			if err != nil {
				log.Fatal(err)
			}
			sb = avf.SBAVF
			if sb > 0 {
				row[i] = avf.DUE / sb
			}
		}
		fmt.Printf("%-12s %9.2f%% %11.2fx %11.2fx %11.2fx\n", name, 100*sb, row[0], row[1], row[2])
	}

	// Fault-mode scaling (Figure 6 shape): larger spatial faults have
	// higher MB-AVF because a bigger group is more likely to contain at
	// least one ACE bit.
	fmt.Println("\nDUE MB-AVF / SB-AVF vs fault-mode size (minife, parity, x4 way-physical)")
	run, err := mbavf.RunWorkloadContext(context.Background(), "minife")
	if err != nil {
		log.Fatal(err)
	}
	for m := 2; m <= 8; m++ {
		avf, err := run.AVF(mbavf.L1, mbavf.Parity, mbavf.Interleaving{Style: mbavf.StyleWayPhysical, Factor: 4}, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %dx1: %.2fx\n", m, avf.DUE/avf.SBAVF)
	}
}
