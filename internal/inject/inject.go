// Package inject implements architectural fault-injection campaigns into
// the GPU vector register file, the paper's Section VII-A methodology for
// validating the SDC MB-AVF model.
//
// A campaign first records a golden (fault-free) run of a workload, then
// repeatedly re-simulates it with single- or multi-bit register flips at
// random times and targets, classifying each run's outcome by comparing
// the final program output with the golden output. The ACE-interference
// study builds multi-bit fault groups around the SDC ACE bits found by
// single-bit injection and counts groups whose multi-bit outcome is
// masked even though they contain an SDC ACE bit — the program-level
// interaction (e.g. XOR cancellation, control-flow reconvergence) that
// the analytical MB-AVF model deliberately ignores.
//
// Outcomes follow the taxonomy of large fault-injection studies (Hari et
// al., Cai et al.): Masked, SDC, DUE (a machine-detected trap), Hang
// (instruction-budget livelock) and Crash (the simulated run panicked).
// All five are *classifications* of a successfully injected run;
// failures of the campaign infrastructure itself are reported as errors
// wrapping ErrInfra and never carry an outcome.
//
// A shot pays only for simulation that can change its outcome. A flip of
// a register that no program of the golden run names is classified
// masked without running anything, and a run whose flip lands in an
// empty wave slot or in a register the resident program never names
// stops there as masked. Both rest on sim.Workload.Run being
// deterministic, the assumption golden-run comparison already makes, and
// both give exactly the outcome full simulation would.
package inject

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"mbavf/internal/gpu"
	"mbavf/internal/sim"
)

// Outcome classifies one injected run.
type Outcome int

const (
	// OutcomeMasked: program output matched the golden run.
	OutcomeMasked Outcome = iota
	// OutcomeSDC: the program completed with corrupted output.
	OutcomeSDC
	// OutcomeDUE: the fault was detected by a machine-level mechanism
	// (bad-address or misaligned-access trap).
	OutcomeDUE
	// OutcomeHang: the run exhausted the MaxInstructions budget — an
	// injection-corrupted livelock caught by the watchdog rather than a
	// genuine detection.
	OutcomeHang
	// OutcomeCrash: the simulated run panicked (e.g. an
	// allocation-exhaustion panic); the worker recovered and the
	// campaign continued.
	OutcomeCrash
)

func (o Outcome) String() string {
	switch o {
	case OutcomeMasked:
		return "masked"
	case OutcomeSDC:
		return "sdc"
	case OutcomeDUE:
		return "due"
	case OutcomeHang:
		return "hang"
	case OutcomeCrash:
		return "crash"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ParseOutcome inverts Outcome.String.
func ParseOutcome(s string) (Outcome, error) {
	for _, o := range []Outcome{OutcomeMasked, OutcomeSDC, OutcomeDUE, OutcomeHang, OutcomeCrash} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("inject: unknown outcome %q", s)
}

// MarshalJSON encodes the outcome as its string name, the stable form
// used by checkpoint files.
func (o Outcome) MarshalJSON() ([]byte, error) {
	return []byte(`"` + o.String() + `"`), nil
}

// UnmarshalJSON decodes an outcome name.
func (o *Outcome) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseOutcome(s)
	if err != nil {
		return err
	}
	*o = parsed
	return nil
}

// ErrInfra marks a failure of the campaign infrastructure itself
// (session construction, finalization, output extraction, or a non-trap
// workload error). Such failures carry no outcome classification;
// callers distinguish them with errors.Is(err, ErrInfra).
var ErrInfra = errors.New("infrastructure failure")

func infraErr(stage string, err error) error {
	return fmt.Errorf("inject: %s: %w: %w", stage, ErrInfra, err)
}

// Target selects where and when a fault lands: bit Bit of 32-bit register
// Reg of VGPR thread Thread on compute unit 0, at the first issue at or
// after Cycle.
type Target struct {
	Cycle  uint64 `json:"cycle"`
	Thread int    `json:"thread"`
	Reg    int    `json:"reg"`
	Bit    int    `json:"bit"`
}

// Result is one injected run.
type Result struct {
	Target  Target
	Outcome Outcome
}

// Campaign drives repeated injected runs of one workload. The campaign
// itself is immutable after construction; its Run* methods are safe for
// concurrent use (each injected run builds a fresh simulator session).
type Campaign struct {
	workload sim.Workload
	cfg      sim.Config
	golden   []byte
	cycles   uint64
	// named[r] reports whether a program the golden run dispatched names
	// vector register r.
	named []bool
	// fullSim turns off both masked-shot shortcuts; tests set it to get
	// the full-simulation oracle.
	fullSim bool
}

// NewCampaign performs the fault-free reference run.
func NewCampaign(w sim.Workload, cfg sim.Config) (*Campaign, error) {
	return NewCampaignContext(context.Background(), w, cfg)
}

// NewCampaignContext is NewCampaign under a context: cancelling ctx
// aborts the golden reference run — the adapter that lets a serving
// layer tear down queued campaign jobs before their (expensive) setup
// completes.
func NewCampaignContext(ctx context.Context, w sim.Workload, cfg sim.Config) (*Campaign, error) {
	s, err := sim.ExecuteContext(ctx, w, cfg)
	if err != nil {
		return nil, fmt.Errorf("inject: golden run: %w", err)
	}
	golden, err := s.OutputData()
	if err != nil {
		return nil, err
	}
	if len(golden) == 0 {
		return nil, fmt.Errorf("inject: workload %s declares no output", w.Name)
	}
	named := make([]bool, cfg.GPU.NumVRegs)
	for r := range named {
		for _, p := range s.Machine.Programs() {
			if p.NamesVReg(r) {
				named[r] = true
				break
			}
		}
	}
	return &Campaign{workload: w, cfg: cfg, golden: golden, cycles: s.Cycles(), named: named}, nil
}

// Cycles returns the golden run's duration, the sampling range for
// injection times.
func (c *Campaign) Cycles() uint64 { return c.cycles }

// Golden returns the fault-free output.
func (c *Campaign) Golden() []byte { return c.golden }

// Workload names the campaign's workload.
func (c *Campaign) Workload() string { return c.workload.Name }

// RunMask injects a multi-bit flip (mask) into one register and
// classifies the outcome. A panic anywhere in the simulated run is
// recovered and classified OutcomeCrash; machine traps are classified
// OutcomeDUE (bad address, misaligned) or OutcomeHang (instruction
// budget). A non-nil error wraps ErrInfra and means the run could not be
// classified at all — the returned Outcome is meaningless then.
//
// A flip that provably cannot reach a register any program reads is
// classified OutcomeMasked without simulating the run (the register is
// named by no program of the golden run) or the rest of it (the machine
// applied the flip inertly and stopped).
func (c *Campaign) RunMask(tgt Target, mask uint32) (outcome Outcome, err error) {
	if !c.fullSim && (tgt.Reg < 0 || tgt.Reg >= len(c.named) || !c.named[tgt.Reg]) {
		obsProvenStatic.Add(1)
		return OutcomeMasked, nil
	}
	var s *sim.Session
	defer func() {
		if p := recover(); p != nil {
			outcome, err = OutcomeCrash, nil
			// A panic after the inert stop is the workload reacting to
			// the stop; the fault itself was masked.
			if s != nil && s.Machine.Inert() {
				outcome = OutcomeMasked
			}
		}
	}()
	s, err = sim.NewSession(c.cfg)
	if err != nil {
		return 0, infraErr("session", err)
	}
	s.Machine.AddInjection(gpu.Injection{
		Cycle:  tgt.Cycle,
		CU:     0,
		Thread: tgt.Thread,
		Reg:    tgt.Reg,
		Mask:   mask,
	})
	if !c.fullSim {
		s.Machine.StopWhenInert()
	}
	err = c.workload.Run(s)
	// Classify the inert stop from the machine, not from err: the
	// workload may have wrapped or swallowed ErrInert.
	if s.Machine.Inert() {
		obsProvenInert.Add(1)
		return OutcomeMasked, nil
	}
	if err != nil {
		var trap *gpu.TrapError
		if errors.As(err, &trap) {
			if trap.Kind == gpu.TrapBudget {
				return OutcomeHang, nil
			}
			return OutcomeDUE, nil
		}
		// The golden run of the same recipe succeeded, so a non-trap
		// error here is the infrastructure failing, not the fault being
		// detected.
		return 0, infraErr("workload", err)
	}
	if err := s.Finalize(); err != nil {
		return 0, infraErr("finalize", err)
	}
	out, err := s.OutputData()
	if err != nil {
		return 0, infraErr("output", err)
	}
	if bytes.Equal(out, c.golden) {
		return OutcomeMasked, nil
	}
	return OutcomeSDC, nil
}

// RunSingle injects a single-bit flip.
func (c *Campaign) RunSingle(tgt Target) (Outcome, error) {
	return c.RunMask(tgt, 1<<uint(tgt.Bit&31))
}

// shotRand derives the RNG for shot i of a seeded campaign with a
// splitmix64 finalizer, so every target depends only on (seed, i) and any
// worker schedule — including fully serial — samples identical targets.
func shotRand(seed int64, i int) *rand.Rand {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// target draws shot i's injection target uniformly over compute unit 0's
// VGPR file and the golden run's duration.
func (c *Campaign) target(seed int64, i int) Target {
	r := shotRand(seed, i)
	return Target{
		Cycle:  uint64(r.Int63n(int64(c.cycles + 1))),
		Thread: r.Intn(c.cfg.GPU.VGPRThreads()),
		Reg:    r.Intn(c.cfg.GPU.NumVRegs),
		Bit:    r.Intn(32),
	}
}

// SDCBits filters a campaign's results to the SDC ACE targets.
func SDCBits(results []Result) []Result {
	var out []Result
	for _, r := range results {
		if r.Outcome == OutcomeSDC {
			out = append(out, r)
		}
	}
	return out
}

// Counts summarizes outcomes.
type Counts struct {
	Masked, SDC, DUE, Hang, Crash int
}

// Total sums all outcome classes.
func (c Counts) Total() int { return c.Masked + c.SDC + c.DUE + c.Hang + c.Crash }

// Count tallies outcome classes.
func Count(results []Result) Counts {
	var c Counts
	for _, r := range results {
		switch r.Outcome {
		case OutcomeMasked:
			c.Masked++
		case OutcomeSDC:
			c.SDC++
		case OutcomeDUE:
			c.DUE++
		case OutcomeHang:
			c.Hang++
		case OutcomeCrash:
			c.Crash++
		}
	}
	return c
}

// groupMask returns an m-bit contiguous flip mask containing bit, clamped
// to the 32-bit register (the anchor shifts down near bit 31), plus the
// anchor bit.
func groupMask(bit, m int) uint32 {
	anchor := bit
	if anchor+m > 32 {
		anchor = 32 - m
	}
	return ((uint32(1) << m) - 1) << uint(anchor)
}

// InterferenceResult counts the Table II study for one fault-mode size.
type InterferenceResult struct {
	ModeSize     int
	Groups       int // multi-bit fault groups injected (one per SDC ACE bit)
	Interference int // groups masked despite containing an SDC ACE bit
	DUE          int // groups converted to a detected outcome (incl. hang/crash)
}

// InterferenceStudy injects, for every SDC ACE bit found by single-bit
// injection, the multi-bit fault group of each mode size containing it
// (same cycle, same register, adjacent bits), and counts ACE
// interference: groups whose multi-bit outcome is masked although the
// single-bit model predicts SDC. On error, including the cancellation of
// ctx (checked before each group injection), the rows completed so far
// are returned alongside the error, so a long study degrades gracefully.
func (c *Campaign) InterferenceStudy(ctx context.Context, sdcBits []Result, modeSizes []int) ([]InterferenceResult, error) {
	out := make([]InterferenceResult, 0, len(modeSizes))
	for _, m := range modeSizes {
		if m < 2 || m > 32 {
			return out, fmt.Errorf("inject: mode size %d out of range [2,32]", m)
		}
		res := InterferenceResult{ModeSize: m}
		for _, sb := range sdcBits {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			o, err := c.RunMask(sb.Target, groupMask(sb.Target.Bit, m))
			if err != nil {
				return out, err
			}
			res.Groups++
			switch o {
			case OutcomeMasked:
				res.Interference++
			case OutcomeDUE, OutcomeHang, OutcomeCrash:
				res.DUE++
			}
		}
		out = append(out, res)
	}
	return out, nil
}
