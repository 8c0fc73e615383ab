package mbavf

import (
	"context"
	"errors"
	"os"
	"time"

	"mbavf/internal/fabric"
	"mbavf/internal/inject"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// InjectionOutcome classifies a fault-injected run.
type InjectionOutcome string

// Injection outcomes. Masked/SDC/DUE follow the paper's taxonomy; Hang
// (instruction-budget livelock) and Crash (simulator panic, recovered)
// are the additional outcome classes large fault-injection studies treat
// as first-class.
const (
	Masked InjectionOutcome = "masked"
	SDC    InjectionOutcome = "sdc"
	DUE    InjectionOutcome = "due"
	Hang   InjectionOutcome = "hang"
	Crash  InjectionOutcome = "crash"
)

func outcomeOf(o inject.Outcome) InjectionOutcome {
	switch o {
	case inject.OutcomeSDC:
		return SDC
	case inject.OutcomeDUE:
		return DUE
	case inject.OutcomeHang:
		return Hang
	case inject.OutcomeCrash:
		return Crash
	default:
		return Masked
	}
}

// ErrInfrastructure marks campaign infrastructure failures (as opposed
// to classified injection outcomes); it aliases the internal sentinel so
// callers can test errors with errors.Is.
var ErrInfrastructure = inject.ErrInfra

// InjectionCampaign performs architectural fault injection into the GPU
// vector register file of a workload, the validation methodology behind
// the paper's Table II. It is safe for concurrent use.
type InjectionCampaign struct {
	name string
	c    *inject.Campaign
}

// NewInjectionCampaignContext records the golden run of the named
// workload. Cancelling ctx aborts the golden run, so a serving layer can
// tear down a campaign job, and a CLI can honour an interrupt, before
// its setup completes.
func NewInjectionCampaignContext(ctx context.Context, workload string) (*InjectionCampaign, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	c, err := inject.NewCampaignContext(ctx, w, sim.InjectionConfig())
	if err != nil {
		return nil, err
	}
	return &InjectionCampaign{name: workload, c: c}, nil
}

// Workload returns the campaign's workload name.
func (ic *InjectionCampaign) Workload() string { return ic.name }

// InjectionResult is one injected run: a single-bit flip of the given
// register bit of the given VGPR thread at the given cycle.
type InjectionResult struct {
	Cycle   uint64
	Thread  int
	Reg     int
	Bit     int
	Outcome InjectionOutcome
}

// CampaignSummary tallies outcome classes plus infrastructure failures
// (shots that could not be classified at all but were recorded so the
// campaign could keep going).
type CampaignSummary struct {
	Masked, SDC, DUE, Hang, Crash int
	// Errors counts shots lost to infrastructure failures; they are
	// excluded from the outcome tallies and from the result list.
	Errors int
}

// Classified returns the number of successfully classified shots.
func (s CampaignSummary) Classified() int {
	return s.Masked + s.SDC + s.DUE + s.Hang + s.Crash
}

// CampaignRunConfig tunes a hardened campaign run.
type CampaignRunConfig struct {
	// Injections is the number of single-bit shots.
	Injections int
	// Seed drives target sampling; every shot derives its RNG from
	// (Seed, shot index), so any worker count gives identical results.
	Seed int64
	// Workers is the worker-pool size (values below 1 run serially).
	Workers int
	// Timeout bounds the whole run's wall clock (0 = none). On expiry
	// in-flight shots drain and the completed prefix is returned (and
	// checkpointed) with context.DeadlineExceeded.
	Timeout time.Duration
	// ErrorBudget aborts the campaign once more than this many shots
	// fail with infrastructure errors (0 = unlimited: record and keep
	// going).
	ErrorBudget int
	// CheckpointPath, when non-empty, enables periodic atomic JSON
	// checkpoints of completed shots and a final checkpoint when the
	// run ends for any reason (completion, cancellation, budget abort).
	CheckpointPath string
	// CheckpointEvery is the number of completed shots between periodic
	// checkpoint writes (default 32).
	CheckpointEvery int
	// Resume loads CheckpointPath (if it exists) and skips the shots it
	// already holds. The checkpoint must match the campaign's workload,
	// size, seed, and golden-output digest.
	Resume bool
	// Progress, when non-nil, observes campaign progress after every
	// completed shot (never concurrently). Completed includes shots
	// restored from a checkpoint — the hook async job queues use for
	// status polling.
	Progress func(completed, total int)
	// Fabric, when non-nil, distributes the campaign across a worker
	// fleet. Results stay bit-identical to a local run — the per-shot
	// (Seed, index) RNG guarantees it — and checkpoint/resume works
	// unchanged: a drain checkpoints whatever the fleet delivered.
	Fabric *FabricOptions
}

// FabricOptions configures distributed campaign execution.
type FabricOptions struct {
	// Workers is the fleet's base URLs (e.g. "http://host:8080"). Empty
	// runs in-process (the graceful-degradation floor).
	Workers []string
	// ShardSize is the number of shots per lease (default 64, at most
	// 65536).
	ShardSize int
	// LeaseTTL is the per-lease heartbeat deadline; a lease silent for
	// this long is stolen and re-dispatched (default 15s).
	LeaseTTL time.Duration
	// ErrorBudget aborts the run after this many failed lease dispatches
	// (0 = unlimited; every failure retries or falls back in-process).
	ErrorBudget int
}

// RunCampaign executes a parallel single-bit campaign with panic
// isolation, hang/crash classification, graceful degradation, and
// optional checkpoint/resume. Cancelling ctx drains in-flight shots and
// returns the completed prefix — with a checkpoint on disk when
// CheckpointPath is set — along with the context's error.
func (ic *InjectionCampaign) RunCampaign(ctx context.Context, cfg CampaignRunConfig) ([]InjectionResult, CampaignSummary, error) {
	rc := inject.RunConfig{
		N:         cfg.Injections,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		Timeout:   cfg.Timeout,
		MaxErrors: cfg.ErrorBudget,
	}

	ck := inject.NewCheckpoint(ic.name, cfg.Injections, cfg.Seed, ic.c.Golden())
	if cfg.Resume && cfg.CheckpointPath != "" {
		loaded, err := inject.LoadCheckpoint(cfg.CheckpointPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume: a fresh run.
		case err != nil:
			return nil, CampaignSummary{}, err
		default:
			if err := loaded.Matches(ic.name, cfg.Injections, cfg.Seed, ic.c.Golden()); err != nil {
				return nil, CampaignSummary{}, err
			}
			rc.Completed = loaded.Shots
		}
	}

	var onCheckpoint func(inject.Shot)
	if cfg.CheckpointPath != "" {
		every := cfg.CheckpointEvery
		if every <= 0 {
			every = 32
		}
		ck.Shots = append(ck.Shots, rc.Completed...)
		sinceWrite := 0
		onCheckpoint = func(s inject.Shot) {
			ck.Shots = append(ck.Shots, s)
			sinceWrite++
			if sinceWrite >= every {
				sinceWrite = 0
				// Best effort mid-run; the final write reports errors.
				_ = ck.Save(cfg.CheckpointPath)
			}
		}
	}
	if onCheckpoint != nil || cfg.Progress != nil {
		completed := len(rc.Completed)
		rc.OnShot = func(s inject.Shot) {
			if onCheckpoint != nil {
				onCheckpoint(s)
			}
			if cfg.Progress != nil {
				completed++
				cfg.Progress(completed, cfg.Injections)
			}
		}
	}

	var rep *inject.RunReport
	var runErr error
	if cfg.Fabric != nil {
		co := fabric.New(fabric.Config{
			Workers:     cfg.Fabric.Workers,
			ShardSize:   cfg.Fabric.ShardSize,
			LeaseTTL:    cfg.Fabric.LeaseTTL,
			ErrorBudget: cfg.Fabric.ErrorBudget,
		}, ic.c)
		rep, runErr = co.Run(ctx, rc)
	} else {
		rep, runErr = ic.c.Run(ctx, rc)
	}
	if rep == nil {
		return nil, CampaignSummary{}, runErr
	}
	if cfg.CheckpointPath != "" {
		ck.Shots = rep.Shots
		if err := ck.Save(cfg.CheckpointPath); err != nil && runErr == nil {
			runErr = err
		}
	}

	results := make([]InjectionResult, 0, len(rep.Shots))
	for _, r := range rep.Results() {
		results = append(results, InjectionResult{
			Cycle:   r.Target.Cycle,
			Thread:  r.Target.Thread,
			Reg:     r.Target.Reg,
			Bit:     r.Target.Bit,
			Outcome: outcomeOf(r.Outcome),
		})
	}
	n := rep.Counts()
	sum := CampaignSummary{Masked: n.Masked, SDC: n.SDC, DUE: n.DUE, Hang: n.Hang, Crash: n.Crash, Errors: rep.InfraErrors()}
	return results, sum, runErr
}

// InterferenceRow is the Table II result for one multi-bit fault-mode
// size.
type InterferenceRow struct {
	ModeSize     int
	Groups       int
	Interference int
}

// RunInterference injects, for every SDC outcome in results, the
// modeSizes-bit fault groups containing that bit, and counts ACE
// interference (groups masked despite containing an SDC ACE bit).
// Cancelling ctx stops the study before its next group injection and
// returns the rows completed so far with the context's error.
func (ic *InjectionCampaign) RunInterference(ctx context.Context, results []InjectionResult, modeSizes []int) ([]InterferenceRow, error) {
	var sdc []inject.Result
	for _, r := range results {
		if r.Outcome == SDC {
			sdc = append(sdc, inject.Result{
				Target:  inject.Target{Cycle: r.Cycle, Thread: r.Thread, Reg: r.Reg, Bit: r.Bit},
				Outcome: inject.OutcomeSDC,
			})
		}
	}
	study, err := ic.c.InterferenceStudy(ctx, sdc, modeSizes)
	out := make([]InterferenceRow, len(study))
	for i, s := range study {
		out[i] = InterferenceRow{ModeSize: s.ModeSize, Groups: s.Groups, Interference: s.Interference}
	}
	return out, err
}
