package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mbavf/internal/obs"
)

// workload is one benchmark traffic mix. Implementations keep every
// piece of process-wide state they depend on (the experiments memo,
// the observability switches, store directories) explicit in setup, so
// a workload measures the same thing whatever ran before it.
type workload interface {
	// setup builds the state the operations run against from scratch.
	// It runs several times per measured run, each time after close;
	// only the last state is used.
	setup(ctx context.Context) error
	// run performs operations until lim is reached, recording each one.
	run(ctx context.Context, lim limit, t *tally) error
	// check compares the outputs the operations returned with golden
	// data and with direct calls, recording every mismatch.
	check(ctx context.Context, t *tally) error
	// details derives the workload's own named timings (per figure, per
	// request class, per arm) from a measured tally.
	details(t *tally) []detail
	close()
}

// limit bounds one measured phase: by a deadline, or — for tests — by
// an exact number of rounds.
type limit struct {
	until  time.Time
	rounds int
}

// each calls round(0), round(1), ... until the limit. Under a deadline
// a round starts only when the previous round's duration still fits, so
// every measured round is complete and the run stays within its time.
func (l limit) each(round func(i int) error) error {
	var last time.Duration
	for i := 0; l.rounds == 0 || i < l.rounds; i++ {
		if l.rounds == 0 && i > 0 && time.Now().Add(last).After(l.until) {
			return nil
		}
		began := time.Now()
		if err := round(i); err != nil {
			return err
		}
		last = time.Since(began)
	}
	return nil
}

// more reports whether a closed-loop client may send another request.
func (l limit) more(sent int) bool {
	if l.rounds > 0 {
		return sent < l.rounds
	}
	return time.Now().Before(l.until)
}

const (
	// maxProblems caps the mismatch messages one run keeps.
	maxProblems = 20
	// minSetupSpan (seconds) and maxSetupRuns bound the extra set-ups
	// of a quick workload.
	minSetupSpan = 1.0
	maxSetupRuns = 25
)

// tally collects one phase's operation latencies by class, the counts
// of work items attempted and failed, named counters, and correctness
// problems. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	samples   map[string][]float64 // op class -> latencies (ms)
	counts    map[string]int
	attempted int
	failed    int
	items     int
	problems  []string
	elapsed   time.Duration
}

func newTally() *tally {
	return &tally{samples: map[string][]float64{}, counts: map[string]int{}}
}

// op records a completed operation of the class that finished items
// work items (figures, requests, answers, shots) in ms milliseconds.
func (t *tally) op(class string, ms float64, items int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[class] = append(t.samples[class], ms)
	t.attempted += items
	t.items += items
}

// fail records items work items that failed with err.
func (t *tally) fail(items int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += items
	t.failed += items
	t.noteLocked("failed: %v", err)
}

// count adds n to a named counter.
func (t *tally) count(name string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += n
}

// mismatch records an output that differs from its reference.
func (t *tally) mismatch(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.noteLocked(format, args...)
	t.counts["mismatches"]++
}

func (t *tally) noteLocked(format string, args ...any) {
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// all returns every operation latency of every class.
func (t *tally) all() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.samples {
		out = append(out, s...)
	}
	return out
}

// samplesOf returns the latencies of the named classes.
func (t *tally) samplesOf(classes ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, c := range classes {
		out = append(out, t.samples[c]...)
	}
	return out
}

// merge adds o's counts and problems into t (samples stay per phase).
func (t *tally) merge(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.items += o.items
	for k, v := range o.counts {
		t.counts[k] += v
	}
	for _, p := range o.problems {
		if len(t.problems) < maxProblems {
			t.problems = append(t.problems, p)
		}
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is one of a workload's own named timings, with the summary of
// the samples behind it.
type detail struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

// result is everything one workload run reports, in host time.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Spread    map[string]summary `json:"spread,omitempty"`
	Details   []detail           `json:"details,omitempty"`
	Where     []whereRow         `json:"where,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// runConfig selects how one workload run is measured.
type runConfig struct {
	seed      int64
	seconds   int
	trace     bool
	setupRuns int
	rounds    int    // exact rounds per phase instead of a deadline (tests)
	dir       string // scratch directory inside the checkout
	gold      *goldenData
}

// measure runs one workload: the set-ups, the measured phase, then the
// correctness checks. With trace, the measured time is split into an
// untraced half and a traced half (observability counters and
// Chrome-trace recording on), and the direct layer probes run last.
func measure(ctx context.Context, name string, w workload, cfg runConfig) (*result, error) {
	defer w.close()
	res := &result{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Spread: map[string]summary{}}
	// Set-up repeats setupRuns times and, when it is quick, until
	// minSetupSpan has passed, so the median of a 40 ms set-up does not
	// rest on three samples.
	var setups []float64
	spent := 0.0
	for len(setups) < max(cfg.setupRuns, 1) || (cfg.setupRuns > 1 && spent < minSetupSpan && len(setups) < maxSetupRuns) {
		// Releasing the previous set-up's state first keeps repeated
		// set-ups out of the peak memory.
		w.close()
		runtime.GC()
		began := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		s := time.Since(began).Seconds()
		setups = append(setups, s)
		spent += s
	}
	phase := func(d time.Duration) (*tally, error) {
		t := newTally()
		began := time.Now()
		err := w.run(ctx, limit{until: began.Add(d), rounds: cfg.rounds}, t)
		t.elapsed = time.Since(began)
		return t, err
	}
	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		t, err := phase(total)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := w.check(ctx, t); err != nil {
			return nil, fmt.Errorf("%s: check: %w", name, err)
		}
		lat := t.all()
		if len(lat) == 0 || t.items == 0 {
			return nil, fmt.Errorf("%s: no operation completed", name)
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["latency_ms"] = metric{latency(w, lat), "ms"}
		res.Metrics["throughput"] = metric{float64(t.items) / t.elapsed.Seconds(), "items/s"}
		res.Samples["setup_s"] = len(setups)
		res.Samples["latency_ms"] = len(lat)
		res.Samples["throughput"] = t.items
		res.Spread["setup_s"] = summarize(setups)
		res.Spread["latency_ms"] = summarize(lat)
		res.Details = w.details(t)
		finish(res, t)
		return res, nil
	}

	untraced, err := phase(total / 2)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	obs.Reset()
	obs.Enable()
	obs.StartTrace()
	traced, err := phase(total / 2)
	obs.StopTrace()
	if err != nil {
		return nil, fmt.Errorf("%s: traced: %w", name, err)
	}
	counters := obs.Counters()
	hists := histQuantiles(obs.Histograms())
	obs.Disable()
	data, err := obs.TraceJSON()
	if err != nil {
		return nil, err
	}
	res.TraceFile = filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d.trace.json", name, cfg.seed))
	if err := os.WriteFile(res.TraceFile, data, 0o644); err != nil {
		return nil, err
	}
	spans, err := parseSpans(data)
	if err != nil {
		return nil, err
	}
	stats := selfTimes(spans)
	res.Where = whereTimeGoes(stats)

	all := newTally()
	all.merge(untraced)
	all.merge(traced)
	if err := w.check(ctx, all); err != nil {
		return nil, fmt.Errorf("%s: check: %w", name, err)
	}
	probes, err := runProbes(ctx, cfg.dir, cfg.gold, all)
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", name, err)
	}
	if u, tr := untraced.all(), traced.all(); len(u) > 0 && len(tr) > 0 {
		probes["trace.overhead"] = latency(w, tr) / latency(w, u)
	}
	res.Metrics = layerMetrics(traced, counters, hists, stats, probes)
	res.Details = w.details(traced)
	finish(res, all)
	return res, nil
}

// benchSpan opens a span around one benchmark operation when a trace is
// recording, and an inert span otherwise, so untraced runs pay nothing.
func benchSpan(op string) obs.Span {
	if !obs.Tracing() {
		return obs.Span{}
	}
	return obs.StartSpan2("bench:", op)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// latency is a workload's typical operation latency: the median, unless
// the workload defines its own.
func latency(w workload, lat []float64) float64 {
	if l, ok := w.(interface{ latency([]float64) float64 }); ok {
		return l.latency(lat)
	}
	return median(lat)
}

// finish copies the op counts and verdict into the result.
func finish(res *result, t *tally) {
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Problems = t.problems
	res.Correct = t.counts["mismatches"] == 0
}
