// Command bench is the repository benchmark. It measures eight
// workloads — regenerating three paper figures, querying a warm analysis
// server, bringing up cold servers in three ways, and running
// fault-injection campaigns — each in a fresh child process, checks
// every output it can against golden.json and direct calls, and prints
// each metric with its unit and sample count. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh --seed 1                          # every workload
//	bash bench/run.sh --workload serve-warm --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh --workload campaign --trace 1     # per-layer metrics
//
// See README.md for the workloads, the metrics and what moves them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Everything the benchmark writes lives under buildDir in the working
// directory, which run.sh makes the repository root.
const buildDir = ".bench_build"

var (
	resultsDir = filepath.Join(buildDir, "results")
	workDir    = filepath.Join(buildDir, "work")
)

// workloadNames lists the workloads. Each has one kind of operation, so
// its latency and throughput follow that operation alone: the figures
// and the cold-server arms are workloads of their own rather than
// classes mixed into one score.
var workloadNames = []string{"fig4", "fig6", "fig11", "serve-warm", "cold-record", "cold-reload", "cold-remote", "campaign"}

const (
	// setupRuns set-ups precede every untraced run; setup_s is their
	// median.
	setupRuns = 3
	// childTimeout bounds one workload's child process.
	childTimeout = 170 * time.Second
	// maxProcs is the CPU count a workload process may use: the load
	// comes from at most two client threads or workers.
	maxProcs = 2
)

func newWorkload(name string, seed int64, gold *goldenData, dir string) (workload, error) {
	if j, ok := figJobs[name]; ok {
		return &paperFigs{job: j, gold: gold}, nil
	}
	if arm, ok := strings.CutPrefix(name, "cold-"); ok && slices.Contains(coldArms, arm) {
		return &serveCold{arm: arm, seed: seed, gold: gold, dir: dir}, nil
	}
	switch name {
	case "serve-warm":
		return &serveWarm{seed: seed, gold: gold}, nil
	case "campaign":
		return &campaignLoad{seed: seed, gold: gold}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(workloadNames, ", "))
}

func main() {
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", defaultSeed, "seed the workload inputs derive from")
	seconds := flag.Int("seconds", 10, "measured seconds per workload run")
	trace := flag.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	childOut := flag.String("child-out", "", "run the workload in this process and write its result to this file (used by the parent process)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *childOut != "" {
		os.Exit(child(*name, *seed, *seconds, *trace == 1, *childOut))
	}
	os.Exit(parent(*name, *seed, *seconds, *trace == 1))
}

// child measures one workload in this process and writes the result.
func child(name string, seed int64, seconds int, trace bool, out string) int {
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(name, seed, gold, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runs := setupRuns
	if trace {
		runs = 1
	}
	res, err := measure(context.Background(), name, w, runConfig{
		seed: seed, seconds: seconds, trace: trace, setupRuns: runs, dir: dir, gold: gold,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	data, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// parent runs each requested workload in its own child process, prints
// its metrics and writes its full result under resultsDir.
func parent(name string, seed int64, seconds int, trace bool) int {
	names := workloadNames
	if name != "all" {
		if _, err := newWorkload(name, seed, nil, ""); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		names = []string{name}
	}
	for _, d := range []string{resultsDir, workDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		res, err := runChild(n, seed, seconds, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		printResult(os.Stdout, res)
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d.json", n, seed, btoi(trace))), data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runChild measures one workload in a child process of this binary and
// adds the child's peak resident memory to an untraced result.
func runChild(name string, seed int64, seconds int, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(workDir, fmt.Sprintf("%s-%d.result.json", name, os.Getpid()))
	defer os.Remove(out)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(btoi(trace)), "-child-out", out)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", min(maxProcs, runtime.NumCPU())))
	// The child must not outlive this process, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	if !trace {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, fmt.Errorf("no resource usage for the child process on %s", runtime.GOOS)
		}
		// Linux reports ru_maxrss in KiB.
		res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
		res.Samples["peak_rss_mb"] = 1
	}
	return &res, nil
}

// printResult writes a result as aligned text: each metric with its
// unit, sample count and spread, the workload's own timings, and for a
// traced run where the operations' time went.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	specs := endToEnd
	if r.Trace {
		mode, specs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %d s  %s ==\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "  %-30s %14s  %-8s %6s  %s\n", "metric", "value", "unit", "n", "q1 .. q3  tail")
	for _, s := range specs {
		m := r.Metrics[s.Name]
		fmt.Fprintf(w, "  %-30s %14.6g  %-8s %6s  %s\n", s.Name, m.Value, m.Unit, count(r.Samples[s.Name]), spread(r.Spread[s.Name]))
	}
	if len(r.Details) > 0 {
		fmt.Fprintf(w, "  -- %s timings --\n", r.Workload)
		for _, d := range r.Details {
			fmt.Fprintf(w, "  %-30s %14.6g  %-8s %6d  %s\n", d.Name, d.Value, d.Unit, d.N, spread(d.summary))
		}
	}
	if len(r.Where) > 0 {
		fmt.Fprintf(w, "  -- where the time goes (self time, share of summed span time) --\n")
		for _, row := range r.Where {
			fmt.Fprintf(w, "  %-30s %12.3f s  %6.1f%%  %d spans\n", row.Layer, row.SelfS, 100*row.Share, row.Spans)
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %t\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

func count(n int) string {
	if n == 0 {
		return ""
	}
	return strconv.Itoa(n)
}

// spread formats a summary's quartiles and tail; a count-only summary
// (a ratio's base) prints nothing.
func spread(s summary) string {
	if s.N < 2 || s.Q3 == 0 {
		return ""
	}
	out := fmt.Sprintf("%.4g .. %.4g", s.Q1, s.Q3)
	if s.TailP > 0 {
		out += fmt.Sprintf("  p%g=%.4g", s.TailP, s.Tail)
	}
	return out
}
