// Command mbavf-sim runs one workload on the APU simulator and prints an
// AVF summary of its L1 cache and vector register file under several
// protection configurations.
//
// Usage:
//
//	mbavf-sim -workload minife
//	mbavf-sim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mbavf"
)

func die(err error) {
	fmt.Fprintln(os.Stderr, "mbavf-sim:", err)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "minife", "workload to simulate")
	list := flag.Bool("list", false, "list available workloads")
	mode := flag.Int("mode", 2, "fault-mode width in bits (Mx1)")
	save := flag.String("save", "", "write the run's measurement artifact to this file")
	load := flag.String("load", "", "analyze a previously saved artifact instead of simulating")
	flag.Parse()

	if *list {
		for _, n := range mbavf.Workloads() {
			desc, err := mbavf.WorkloadDescription(n)
			if err != nil {
				die(err)
			}
			fmt.Printf("%-20s %s\n", n, desc)
		}
		return
	}

	var run *mbavf.Run
	var err error
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			die(ferr)
		}
		run, err = mbavf.LoadRun(f)
		f.Close()
		if err != nil {
			die(err)
		}
		fmt.Printf("artifact %s: %d cycles, %d wavefront instructions\n\n",
			*load, run.Cycles(), run.Instructions())
	} else {
		run, err = mbavf.RunWorkloadContext(context.Background(), *workload)
		if err != nil {
			die(err)
		}
		fmt.Printf("workload %s: %d cycles, %d wavefront instructions\n\n",
			*workload, run.Cycles(), run.Instructions())
	}
	if *save != "" {
		f, ferr := os.Create(*save)
		if ferr != nil {
			die(ferr)
		}
		if err := run.Save(f); err != nil {
			f.Close()
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Printf("saved measurement artifact to %s\n\n", *save)
	}

	fmt.Printf("L1 cache, %dx1 faults:\n", *mode)
	fmt.Printf("  %-22s %-8s %10s %10s %10s %10s\n", "interleaving", "scheme", "SB-AVF", "DUE", "SDC", "falseDUE")
	for _, cfg := range []struct {
		style  mbavf.Style
		scheme mbavf.Scheme
	}{
		{mbavf.StyleLogical, mbavf.Parity},
		{mbavf.StyleWayPhysical, mbavf.Parity},
		{mbavf.StyleIndexPhysical, mbavf.Parity},
		{mbavf.StyleWayPhysical, mbavf.SECDED},
	} {
		avf, err := run.AVF(mbavf.L1, cfg.scheme, mbavf.Interleaving{Style: cfg.style, Factor: 2}, *mode)
		if err != nil {
			die(err)
		}
		fmt.Printf("  %-22s %-8s %10.4f %10.4f %10.4f %10.4f\n",
			string(cfg.style)+"-x2", cfg.scheme, avf.SBAVF, avf.DUE, avf.SDC, avf.FalseDUE)
	}

	fmt.Printf("\nVGPR, %dx1 faults:\n", *mode)
	fmt.Printf("  %-22s %-8s %10s %10s %10s\n", "interleaving", "scheme", "SB-AVF", "DUE", "SDC")
	for _, cfg := range []struct {
		style  mbavf.Style
		scheme mbavf.Scheme
	}{
		{mbavf.StyleIntraThread, mbavf.Parity},
		{mbavf.StyleInterThread, mbavf.Parity},
		{mbavf.StyleInterThread, mbavf.SECDED},
	} {
		avf, err := run.AVF(mbavf.VGPR, cfg.scheme, mbavf.Interleaving{Style: cfg.style, Factor: 2}, *mode)
		if err != nil {
			die(err)
		}
		fmt.Printf("  %-22s %-8s %10.4f %10.4f %10.4f\n",
			string(cfg.style)+"-x2", cfg.scheme, avf.SBAVF, avf.TrueDUE+avf.FalseDUE, avf.SDC)
	}
}
