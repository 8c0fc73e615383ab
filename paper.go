package mbavf

import (
	"context"
	"fmt"
	"strings"

	"mbavf/internal/experiments"
)

// Experiments lists the reproducible paper artifacts (table1, fig2, fig4,
// fig5, fig6, table2, fig8, fig9, fig10, table3, fig11).
func Experiments() []string { return experiments.Names() }

// ExperimentOptions tunes RunExperimentContext.
type ExperimentOptions struct {
	// Workloads restricts the benchmark set (nil = the paper set).
	Workloads []string
	// Injections sizes the Table II single-bit campaigns.
	Injections int
	// Windows is the number of time windows in the over-time figures.
	Windows int
	// Seed drives injection sampling.
	Seed int64
	// Workers is the injection worker-pool size (0 = all CPUs); any
	// value produces identical results.
	Workers int
	// AVFWindows is the number of time windows for the avft experiment's
	// time-resolved AVF series (0 = the Windows default).
	AVFWindows int
	// StoreDir, when non-empty, points experiments at a persistent
	// run-artifact store: instrumented runs load from it instead of
	// simulating when recorded, and are recorded after simulating
	// otherwise.
	StoreDir string
	// FabricWorkers, when non-empty, distributes injection campaigns
	// across these fabric worker base URLs (results stay bit-identical
	// to in-process runs).
	FabricWorkers []string
	// Policies restricts the protection policies the policies experiment
	// evaluates (nil = every built-in policy; see Policies()). Unknown
	// names are rejected with ErrBadOption.
	Policies []string
	// ScrubInterval is the scrub period, in cycles, of the scrubbing
	// policies (0 = the built-in default; negative values are rejected
	// with ErrBadOption).
	ScrubInterval int64
}

// internal validates the options and translates them to the experiment
// registry's form, whose Resolve fills the defaults of zero values and
// rejects negative ones; its errors are wrapped in ErrBadOption.
func (o ExperimentOptions) internal() (experiments.Options, error) {
	io, err := experiments.Options{
		Workloads:     o.Workloads,
		Injections:    o.Injections,
		Seed:          o.Seed,
		Windows:       o.Windows,
		Workers:       o.Workers,
		AVFWindows:    o.AVFWindows,
		StoreDir:      o.StoreDir,
		FabricWorkers: o.FabricWorkers,
		Policies:      o.Policies,
		ScrubInterval: o.ScrubInterval,
	}.Resolve()
	if err != nil {
		return experiments.Options{}, fmt.Errorf("%w: %v", ErrBadOption, err)
	}
	return io, nil
}

// Validate checks the options without running anything, reporting any
// invalid field with an error wrapping ErrBadOption — the pre-flight
// check serving layers use before queueing an experiment job.
func (o ExperimentOptions) Validate() error {
	_, err := o.internal()
	return err
}

// RunExperimentContext regenerates one of the paper's tables or figures
// and returns its rendered text. Invalid options are reported with an
// error wrapping ErrBadOption. Cancelling ctx aborts the experiment's
// simulations and injection campaigns and returns the context's error.
func RunExperimentContext(ctx context.Context, name string, opts ExperimentOptions) (string, error) {
	e, err := experiments.ByName(name)
	if err != nil {
		return "", err
	}
	io, err := opts.internal()
	if err != nil {
		return "", err
	}
	io.Context = ctx
	tables, err := e.Run(io)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range tables {
		t.Render(&b)
	}
	return b.String(), nil
}
