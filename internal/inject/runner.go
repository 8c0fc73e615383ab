package inject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mbavf/internal/obs"
)

// ErrBudget reports that a campaign was aborted because more shots than
// RunConfig.MaxErrors failed with infrastructure errors.
var ErrBudget = errors.New("infrastructure error budget exceeded")

// ErrForeignShot reports a resumed shot whose target is not the one the
// campaign samples for its (seed, index): a hand-edited checkpoint, or
// one written under a different VGPR shape.
var ErrForeignShot = errors.New("resumed shot was not sampled by this campaign")

// Observability tallies for campaign runs. Counter adds happen on the
// collector goroutine, one per completed shot; the latency histograms are
// recorded on the worker that ran the shot (Histogram.Record is
// lock-free, so workers never serialize on them).
var (
	obsShots   = obs.NewCounter("inject.shots")
	obsInfra   = obs.NewCounter("inject.infra_errors")
	obsShotNS  = obs.NewHistogram("inject.shot_ns")
	obsOutcome = func() map[Outcome]*obs.Counter {
		m := make(map[Outcome]*obs.Counter)
		for _, o := range []Outcome{OutcomeMasked, OutcomeSDC, OutcomeDUE, OutcomeHang, OutcomeCrash} {
			m[o] = obs.NewCounter("inject.outcome." + o.String())
		}
		return m
	}()
	obsOutcomeNS = func() map[Outcome]*obs.Histogram {
		m := make(map[Outcome]*obs.Histogram)
		for _, o := range []Outcome{OutcomeMasked, OutcomeSDC, OutcomeDUE, OutcomeHang, OutcomeCrash} {
			m[o] = obs.NewHistogram("inject.shot_ns." + o.String())
		}
		return m
	}()
)

// Injected runs RunMask classified masked without full simulation, by the
// path that proved it: a register no program names (static), or a flip
// the machine applied inertly (inert).
var (
	obsProvenStatic = obs.NewCounter("inject.shots_proven_masked|path=static")
	obsProvenInert  = obs.NewCounter("inject.shots_proven_masked|path=inert")
)

// Shot is one indexed injected run within a campaign. Err is non-empty
// when the shot failed with an infrastructure error; Outcome is
// meaningless then (infrastructure failures are never classifications).
type Shot struct {
	Index   int     `json:"index"`
	Target  Target  `json:"target"`
	Outcome Outcome `json:"outcome"`
	Err     string  `json:"err,omitempty"`
}

// RunConfig tunes a parallel single-bit campaign.
type RunConfig struct {
	// N is the number of injections.
	N int
	// Seed drives target sampling. Each shot derives its RNG from
	// (Seed, shot index), so results are bit-identical for every worker
	// count.
	Seed int64
	// Workers is the worker-pool size; values below 1 run serially.
	Workers int
	// Timeout bounds the whole run's wall clock; when it expires the
	// pool drains in-flight shots and Run returns the completed prefix
	// with context.DeadlineExceeded. Zero means no deadline.
	Timeout time.Duration
	// MaxErrors is the infrastructure-error budget: once more than
	// MaxErrors shots have failed with errors the run aborts with
	// ErrBudget (completed shots are still returned). Zero means no
	// budget — every failure is recorded and the campaign keeps going.
	MaxErrors int
	// Completed seeds the run with shots finished by a previous
	// (checkpointed) run; their indices are not re-executed. Shots whose
	// index falls outside [0, N) are ignored; a shot whose target is not
	// the one (Seed, index) samples fails the run with ErrForeignShot.
	Completed []Shot
	// OnShot, when non-nil, observes every newly completed shot from the
	// collector goroutine (never concurrently) — the checkpointing hook.
	OnShot func(Shot)
}

// RunReport is the (possibly partial) product of a campaign run.
type RunReport struct {
	N     int    `json:"n"`
	Seed  int64  `json:"seed"`
	Shots []Shot `json:"shots"` // sorted by index; len < N if interrupted
}

// Complete reports whether every shot finished.
func (r *RunReport) Complete() bool { return len(r.Shots) == r.N }

// InfraErrors counts shots that failed with infrastructure errors.
func (r *RunReport) InfraErrors() int {
	n := 0
	for _, s := range r.Shots {
		if s.Err != "" {
			n++
		}
	}
	return n
}

// Results returns the classified runs in shot order, excluding shots
// that failed with infrastructure errors.
func (r *RunReport) Results() []Result {
	out := make([]Result, 0, len(r.Shots))
	for _, s := range r.Shots {
		if s.Err == "" {
			out = append(out, Result{Target: s.Target, Outcome: s.Outcome})
		}
	}
	return out
}

// Counts tallies the classified outcomes.
func (r *RunReport) Counts() Counts { return Count(r.Results()) }

// Resumed returns the shots of rc.Completed that seed a run of rc, one
// per index in [0, rc.N) with the first copy winning, and the set of
// their indices. It fails with ErrForeignShot, before any shot runs, if
// one of them is not the shot this campaign samples for its index.
func (c *Campaign) Resumed(rc RunConfig) ([]Shot, map[int]bool, error) {
	var shots []Shot
	done := make(map[int]bool, len(rc.Completed))
	for _, s := range rc.Completed {
		if s.Index < 0 || s.Index >= rc.N {
			continue
		}
		if want := c.target(rc.Seed, s.Index); s.Target != want {
			return nil, nil, fmt.Errorf("inject: %w: shot %d targets %+v, seed %d samples %+v",
				ErrForeignShot, s.Index, s.Target, rc.Seed, want)
		}
		if !done[s.Index] {
			done[s.Index] = true
			shots = append(shots, s)
		}
	}
	return shots, done, nil
}

// runShot executes one indexed injection. Panics are already absorbed by
// RunMask, so a worker can never take the process down.
func (c *Campaign) runShot(seed int64, i int) Shot {
	tgt := c.target(seed, i)
	s := Shot{Index: i, Target: tgt}
	var began time.Time
	if obs.Enabled() {
		began = time.Now()
	}
	o, err := c.RunSingle(tgt)
	if !began.IsZero() {
		ns := uint64(time.Since(began))
		obsShotNS.Record(ns)
		if err == nil {
			obsOutcomeNS[o].Record(ns)
		}
	}
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Outcome = o
	return s
}

// RunShot executes one indexed injection. The shot's target depends only
// on (seed, i) through the per-shot splitmix64 RNG, so any executor
// anywhere — a fabric worker, a re-dispatch after a steal, the
// coordinator's local fallback — produces the identical Shot. Exported
// for the distributed campaign fabric.
func (c *Campaign) RunShot(seed int64, i int) Shot { return c.runShot(seed, i) }

// Run executes a single-bit campaign of cfg.N shots on a worker pool.
// Targets depend only on (cfg.Seed, shot index), so serial and parallel
// runs produce identical reports. Cancelling ctx (or exceeding
// cfg.Timeout) stops the feed, drains in-flight shots, and returns the
// completed shots with the context's error — nothing already simulated
// is lost. Per-shot infrastructure failures are recorded on the shot and
// only abort the run once the cfg.MaxErrors budget is exceeded.
func (c *Campaign) Run(ctx context.Context, cfg RunConfig) (*RunReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.N < 0 {
		return nil, fmt.Errorf("inject: negative campaign size %d", cfg.N)
	}
	resumed, done, err := c.Resumed(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rep := &RunReport{N: cfg.N, Seed: cfg.Seed, Shots: resumed}

	sp := obs.StartSpan2("campaign:", c.workload.Name)
	defer sp.End()
	obs.CampaignStart(c.workload.Name, cfg.N, len(done))

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if pending := cfg.N - len(done); workers > pending {
		workers = max(pending, 1)
	}

	indices := make(chan int)
	shots := make(chan Shot)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				shots <- c.runShot(cfg.Seed, i)
			}
		}()
	}
	go func() {
		defer close(indices)
		for i := 0; i < cfg.N; i++ {
			if done[i] {
				continue
			}
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(shots)
	}()

	infraErrs := 0
	budgetHit := false
	for s := range shots {
		rep.Shots = append(rep.Shots, s)
		obsShots.Add(1)
		obs.CampaignShotDone()
		if s.Err != "" {
			obsInfra.Add(1)
			infraErrs++
			if cfg.MaxErrors > 0 && infraErrs > cfg.MaxErrors && !budgetHit {
				budgetHit = true
				cancel() // graceful: drain in-flight shots, keep results
			}
		} else {
			obsOutcome[s.Outcome].Add(1)
		}
		if cfg.OnShot != nil {
			cfg.OnShot(s)
		}
	}
	sort.Slice(rep.Shots, func(i, j int) bool { return rep.Shots[i].Index < rep.Shots[j].Index })

	if budgetHit {
		return rep, fmt.Errorf("inject: %w (%d shots failed)", ErrBudget, infraErrs)
	}
	if err := ctx.Err(); err != nil && !rep.Complete() {
		return rep, err
	}
	return rep, nil
}
