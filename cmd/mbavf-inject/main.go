// Command mbavf-inject runs fault-injection campaigns against a
// workload's vector register file: a single-bit campaign to classify
// outcomes (masked/sdc/due/hang/crash), and optionally the multi-bit
// ACE-interference study (paper Table II).
//
// The campaign runs on a worker pool with deterministic per-shot
// sampling, so any -workers value produces identical results. Completed
// shots are checkpointed atomically to -checkpoint; SIGINT (or -timeout
// expiry) drains in-flight shots, writes a final checkpoint, and exits,
// and a later run with -resume picks up exactly where it stopped.
//
// Usage:
//
//	mbavf-inject -workload prefixsum -n 500 -workers 8
//	mbavf-inject -workload dct -n 200 -interference
//	mbavf-inject -workload dct -n 5000 -checkpoint dct.ckpt.json
//	mbavf-inject -workload dct -n 5000 -checkpoint dct.ckpt.json -resume
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"mbavf"
	"mbavf/internal/fabric"
	"mbavf/internal/obs"
)

// splitPeers parses the -fabric-workers list, dropping empty entries so
// a trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	workload := flag.String("workload", "prefixsum", "workload to inject into")
	n := flag.Int("n", 200, "number of single-bit injections")
	seed := flag.Int64("seed", 1, "sampling seed")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel injection workers (results are identical for any value)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the campaign (0 = none); on expiry completed shots are checkpointed")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for completed shots (enables SIGINT-safe interruption)")
	resume := flag.Bool("resume", false, "resume from -checkpoint instead of starting over")
	errBudget := flag.Int("error-budget", 0, "abort after this many infrastructure errors (0 = record all and keep going)")
	interference := flag.Bool("interference", false, "run the 2x1/3x1/4x1 ACE-interference study on SDC bits")
	obsFlag := flag.Bool("obs", false, "print an observability summary (phase timings and counters) after the campaign")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the campaign phases to this file")
	debugAddr := flag.String("debug-addr", "", "serve expvar, pprof, and Prometheus /metrics on this address (e.g. :8080 or :0 for a free port); /debug/vars carries live campaign progress with shots/sec and ETA")
	fabricWorkers := flag.String("fabric-workers", "", "comma-separated fabric worker base URLs; distributes the campaign across the fleet (results stay bit-identical to a local run)")
	fabricShard := flag.Int("fabric-shard", 0, "shots per fabric lease (0 = default)")
	fabricTTL := flag.Duration("fabric-lease-ttl", 0, "lease deadline before an unresponsive worker's work is stolen (0 = default)")
	fabricBudget := flag.Int("fabric-error-budget", 0, "abort after this many failed lease dispatches (0 = retry/fall back forever)")
	fabricTimeline := flag.Bool("fabric-timeline", false, "print the per-lease campaign timeline (dispatches, steals, latency percentiles, per-worker breakdown) to stderr after a distributed run")
	flag.Parse()

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "mbavf-inject: -resume requires -checkpoint")
		os.Exit(2)
	}

	obs.SetProcessName("mbavf-inject coordinator " + *workload)
	if *obsFlag || *fabricTimeline {
		obs.Enable()
	}
	if *tracePath != "" {
		obs.StartTrace()
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbavf-inject:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mbavf-inject: debug server on http://%s/debug/vars (Prometheus on /metrics)\n", addr)
	}

	// SIGINT/SIGTERM cancel the campaign context; the pool drains
	// in-flight shots and the final checkpoint is written before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := mbavf.NewInjectionCampaignContext(ctx, *workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbavf-inject:", err)
		os.Exit(1)
	}
	// finishObs emits the observability artifacts; it runs on every exit
	// path, including interruption before any shot completes — a partial
	// trace is exactly what an operator investigating a slow or stuck run
	// wants.
	finishObs := func() {
		if *obsFlag {
			var b strings.Builder
			for _, t := range obs.SummaryTables(*workload) {
				t.Render(&b)
			}
			fmt.Print(b.String())
		}
		if *fabricTimeline {
			// The timeline goes to stderr: stdout is the classification
			// summary, which distributed-vs-local comparisons diff
			// byte-for-byte.
			tables := fabric.TimelineTables()
			if len(tables) == 0 {
				fmt.Fprintln(os.Stderr, "mbavf-inject: no fabric events recorded (campaign ran without a fleet?)")
			}
			var b strings.Builder
			for _, t := range tables {
				t.Render(&b)
			}
			fmt.Fprint(os.Stderr, b.String())
		}
		if *tracePath != "" {
			if err := obs.WriteTrace(*tracePath); err != nil {
				fmt.Fprintln(os.Stderr, "mbavf-inject: trace:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "mbavf-inject: wrote %d trace events to %s\n", obs.TraceEventCount(), *tracePath)
		}
	}

	var fo *mbavf.FabricOptions
	if peers := splitPeers(*fabricWorkers); len(peers) > 0 {
		fo = &mbavf.FabricOptions{
			Workers:     peers,
			ShardSize:   *fabricShard,
			LeaseTTL:    *fabricTTL,
			ErrorBudget: *fabricBudget,
		}
		fmt.Fprintf(os.Stderr, "mbavf-inject: distributing across %d fabric workers\n", len(peers))
	}

	results, sum, err := c.RunCampaign(ctx, mbavf.CampaignRunConfig{
		Injections:     *n,
		Seed:           *seed,
		Workers:        *workers,
		Timeout:        *timeout,
		ErrorBudget:    *errBudget,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Fabric:         fo,
	})
	if err != nil && len(results) == 0 && sum.Errors == 0 {
		fmt.Fprintln(os.Stderr, "mbavf-inject:", err)
		finishObs()
		os.Exit(1)
	}

	total := float64(sum.Classified())
	pct := func(k int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(k) / total
	}
	fmt.Printf("%s: %d of %d single-bit injections classified\n", *workload, sum.Classified(), *n)
	fmt.Printf("  masked: %5d (%5.1f%%)\n", sum.Masked, pct(sum.Masked))
	fmt.Printf("  sdc:    %5d (%5.1f%%)\n", sum.SDC, pct(sum.SDC))
	fmt.Printf("  due:    %5d (%5.1f%%)\n", sum.DUE, pct(sum.DUE))
	fmt.Printf("  hang:   %5d (%5.1f%%)\n", sum.Hang, pct(sum.Hang))
	fmt.Printf("  crash:  %5d (%5.1f%%)\n", sum.Crash, pct(sum.Crash))
	if sum.Errors > 0 {
		fmt.Printf("  infrastructure errors: %d shots unclassified\n", sum.Errors)
	}

	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "mbavf-inject: interrupted")
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "mbavf-inject: timeout reached")
		default:
			fmt.Fprintln(os.Stderr, "mbavf-inject:", err)
		}
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "mbavf-inject: progress saved to %s; rerun with -resume to continue\n", *checkpoint)
		}
		finishObs()
		os.Exit(1)
	}

	if *interference {
		rows, err := c.RunInterference(ctx, results, []int{2, 3, 4})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbavf-inject:", err)
			finishObs()
			os.Exit(1)
		}
		fmt.Println("\nACE-interference study (multi-bit groups around SDC ACE bits):")
		for _, r := range rows {
			fmt.Printf("  %dx1: %d groups, %d with interference\n", r.ModeSize, r.Groups, r.Interference)
		}
	}
	finishObs()
}
