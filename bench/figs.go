package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"mbavf/internal/experiments"
	"mbavf/internal/obs"
)

// figPrograms is the program set of the L1 figures, the one the
// repository's own figure benchmarks use.
var figPrograms = []string{"minife", "matmul", "srad"}

// figJob is one figure regeneration: an experiment over a program set.
type figJob struct {
	fig      string
	programs []string
}

// figJobs are the figure workloads, one figure each so that each
// figure's regeneration time is a metric of its own. Fig4 solves one
// mode per layout, the path a batched sweep should not move; fig6
// sweeps the L1 fault-mode sizes; fig11 sweeps 8 VGPR designs x 8 fault
// modes, 64 solves over 8 shared (program, layout) pairs, where a
// batched sweep shows. Fig11 runs over matmul alone: over all three
// programs one regeneration takes about 4 s, too few per run for a
// steady median.
var figJobs = map[string]figJob{
	"fig4":  {"fig4", figPrograms},
	"fig6":  {"fig6", figPrograms},
	"fig11": {"fig11", []string{"matmul"}},
}

// paperFigs regenerates one paper figure through the experiments
// registry, the path mbavf-exp takes. All work is in the core solver:
// the instrumented runs are memoized in setup, and nothing touches sim,
// store or serve while measuring. A figure has no random input, so the
// seed changes nothing.
type paperFigs struct {
	job  figJob
	gold *goldenData
}

func (p *paperFigs) setup(context.Context) error {
	obs.StopTrace()
	obs.Disable()
	obs.Reset()
	experiments.ResetCache()
	// One untimed fig4 over the figure's programs fills the memo with
	// their instrumented runs.
	_, err := figDigest(figJob{"fig4", p.job.programs})
	return err
}

// figDigest regenerates one figure and returns the sha256 of its CSV
// rendering.
func figDigest(j figJob) (string, error) {
	e, err := experiments.ByName(j.fig)
	if err != nil {
		return "", err
	}
	tables, err := e.Run(experiments.Options{Workloads: j.programs})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(experiments.RenderAll(tables, true)))
	return hex.EncodeToString(sum[:]), nil
}

func (p *paperFigs) run(_ context.Context, lim limit, t *tally) error {
	j := p.job
	return lim.each(func(int) error {
		sp := benchSpan(j.fig)
		began := time.Now()
		digest, err := figDigest(j)
		ms := msSince(began)
		sp.End()
		if err != nil {
			t.fail(1, fmt.Errorf("%s: %w", j.fig, err))
			return nil
		}
		t.op(j.fig, ms, 1)
		if want := p.gold.Figures[j.fig]; digest != want {
			t.mismatch("%s: table digest %s, golden %s", j.fig, digest, want)
		}
		return nil
	})
}

// check has nothing left to do: every regeneration was compared with
// its golden digest as it finished.
func (p *paperFigs) check(context.Context, *tally) error { return nil }

// details has nothing to add: the figure is the workload's only class.
func (p *paperFigs) details(*tally) []detail { return nil }

func (p *paperFigs) close() { experiments.ResetCache() }
