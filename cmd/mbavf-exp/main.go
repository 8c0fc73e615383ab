// Command mbavf-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	mbavf-exp -exp fig4                 # one experiment
//	mbavf-exp -exp all                  # everything
//	mbavf-exp -exp table2 -injections 500
//	mbavf-exp -exp fig6 -workloads minife,comd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mbavf/internal/experiments"
	"mbavf/internal/obs"
	"mbavf/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: a paper artifact (table1, fig2, fig4, fig5, fig6, table2, fig8, fig9, fig10, table3, fig11), an ablation (locality, schemes, geometry, l2, cachesize, validate), the protection-policy sweep (policies), or 'all' for the paper set")
	workloadsFlag := flag.String("workloads", "", "comma-separated workload subset (default: the paper set)")
	injections := flag.Int("injections", 200, "single-bit injections per benchmark for table2")
	iworkers := flag.Int("iworkers", runtime.NumCPU(), "injection worker-pool size (identical results for any value)")
	windows := flag.Int("windows", 12, "time windows for fig5/fig8")
	avfWindows := flag.Int("avf-windows", 0, "emit the avft time-resolved AVF series with this many windows (adds 'avft' to -exp all)")
	seed := flag.Int64("seed", 42, "injection sampling seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	svgDir := flag.String("svgdir", "", "also write one SVG figure per table into this directory")
	obsFlag := flag.Bool("obs", false, "print a per-experiment observability summary (phase timings and counters)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of all simulation/analysis phases to this file")
	debugAddr := flag.String("debug-addr", "", "serve expvar, pprof, and Prometheus /metrics on this address (e.g. :8080 or :0 for a free port)")
	storeDir := flag.String("store", "", "persistent run-artifact store directory: load recorded runs instead of simulating, record fresh ones")
	fabricWorkers := flag.String("fabric-workers", "", "comma-separated fabric worker base URLs; distributes injection campaigns across the fleet")
	policiesFlag := flag.String("policies", "", "comma-separated protection policies for the policies experiment (default: all built-in policies)")
	scrubInterval := flag.Int64("scrub-interval", 0, "scrub period in cycles for the scrubbing policies (0 = built-in default; must not be negative)")
	flag.Parse()

	obs.SetProcessName("mbavf-exp " + *exp)
	if *obsFlag {
		obs.Enable()
	}
	if *tracePath != "" {
		obs.StartTrace()
	}
	// writeTrace flushes the recorded trace; fail routes every error exit
	// through it, so the trace survives all exit paths — a partial trace
	// of an interrupted or failed experiment is precisely the artifact an
	// operator wants.
	writeTrace := func() {
		if *tracePath == "" {
			return
		}
		if err := obs.WriteTrace(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "mbavf-exp: trace: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "mbavf-exp: wrote %d trace events to %s\n", obs.TraceEventCount(), *tracePath)
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mbavf-exp: "+format+"\n", args...)
		writeTrace()
		os.Exit(1)
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "mbavf-exp: debug server on http://%s/debug/vars (Prometheus on /metrics)\n", addr)
	}

	// SIGINT/SIGTERM cancel the experiment context; simulations and
	// campaigns drain, e.Run returns the cancellation, and the fail path
	// still writes the trace recorded so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.Options{
		Injections:    *injections,
		Windows:       *windows,
		AVFWindows:    *avfWindows,
		Seed:          *seed,
		Workers:       *iworkers,
		StoreDir:      *storeDir,
		ScrubInterval: *scrubInterval,
	}
	if *workloadsFlag != "" {
		opts.Workloads = strings.Split(*workloadsFlag, ",")
	}
	if *policiesFlag != "" {
		for _, p := range strings.Split(*policiesFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Policies = append(opts.Policies, p)
			}
		}
	}
	if *fabricWorkers != "" {
		for _, p := range strings.Split(*fabricWorkers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.FabricWorkers = append(opts.FabricWorkers, p)
			}
		}
	}
	// Fail fast on bad knobs (negative counts, unknown policy names, a
	// negative scrub interval) before any simulation starts.
	opts, err := opts.Resolve()
	if err != nil {
		fail("%v", err)
	}
	opts.Context = ctx

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig2", "fig4", "fig5", "fig6", "table2", "fig8", "fig9", "fig10", "table3", "fig11"}
		if *avfWindows > 0 {
			names = append(names, "avft")
		}
	}
	for _, name := range names {
		start := time.Now()
		e, err := experiments.ByName(name)
		if err != nil {
			fail("%v", err)
		}
		tables, err := e.Run(opts)
		if err != nil {
			if errors.Is(err, context.Canceled) || ctx.Err() != nil {
				fail("%s interrupted: %v", name, err)
			}
			fail("%s: %v", name, err)
		}
		fmt.Print(experiments.RenderAll(tables, *csv))
		if *svgDir != "" {
			if err := writeFigures(e, tables, *svgDir); err != nil {
				fail("%s figures: %v", name, err)
			}
		}
		if *obsFlag {
			fmt.Print(experiments.RenderAll(obs.SummaryTables(name), *csv))
			obs.Reset()
		}
		if !*csv {
			fmt.Printf("[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	writeTrace()
}

// writeFigures renders an experiment's already-computed tables as SVG
// files named <exp>-<n>.svg.
func writeFigures(e experiments.Experiment, tables []*report.Table, dir string) error {
	if e.Chart.Skip {
		return nil
	}
	figs, err := e.Figures(tables)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, svg := range figs {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.svg", e.Name, i+1))
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
