package inject

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbavf/internal/gpu"
	"mbavf/internal/sim"
)

// tinyProgram stores tid*3 into the output buffer — a minimal valid
// kernel for synthetic robustness workloads.
func tinyProgram(t testing.TB) *gpu.Program {
	t.Helper()
	b := gpu.NewBuilder("tiny")
	b.VMov(gpu.V(0), gpu.Tid())
	b.VMul(gpu.V(1), gpu.V(0), gpu.Imm(3))
	b.VShl(gpu.V(2), gpu.V(0), gpu.Imm(2))
	b.VAdd(gpu.V(2), gpu.V(2), gpu.S(0))
	b.VStore(gpu.V(2), 0, gpu.V(1))
	b.EndPgm()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func tinyDispatch(t testing.TB, s *sim.Session) error {
	out := s.OutputWords(gpu.Lanes)
	return s.Run(gpu.Dispatch{Prog: tinyProgram(t), Waves: 1, Args: []uint32{out}})
}

// spinProgram loops forever; with a small MaxInstructions budget it
// reliably trips the livelock watchdog.
func spinProgram(t testing.TB) *gpu.Program {
	t.Helper()
	b := gpu.NewBuilder("spin")
	b.Label("top")
	b.Br("top")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// wildProgram loads from a corrupted (out-of-memory) address.
func wildProgram(t testing.TB) *gpu.Program {
	t.Helper()
	b := gpu.NewBuilder("wild")
	b.VMov(gpu.V(0), gpu.Imm(-64))
	b.VLoad(gpu.V(1), gpu.V(0), 0)
	b.EndPgm()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// faultyCampaign builds a campaign over a workload whose golden run (the
// first call) is a tiny healthy kernel and whose injected runs are
// replaced by the given misbehavior. Such a workload breaks the
// determinism the masked-shot shortcuts rest on, so its shots take the
// full-simulation path.
func faultyCampaign(t *testing.T, cfg sim.Config, name string, misbehave func(call int64, s *sim.Session) error) *Campaign {
	t.Helper()
	var calls atomic.Int64
	w := sim.Workload{
		Name: name,
		Run: func(s *sim.Session) error {
			call := calls.Add(1)
			if call == 1 {
				return tinyDispatch(t, s)
			}
			return misbehave(call, s)
		},
	}
	c, err := NewCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.fullSim = true
	return c
}

func TestPanickingWorkloadClassifiedCrash(t *testing.T) {
	// Every third call panics mid-run; the campaign must survive,
	// classify exactly those shots as crash, and return all others.
	c := faultyCampaign(t, sim.InjectionConfig(), "panicky", func(call int64, s *sim.Session) error {
		if call%3 == 0 {
			// Mirrors the allocation-exhaustion panic in sim.Session.Alloc.
			panic(fmt.Sprintf("sim: allocation exhausts memory (call %d)", call))
		}
		return tinyDispatch(t, s)
	})
	rep, err := c.Run(context.Background(), RunConfig{N: 9, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("campaign incomplete: %d/%d shots", len(rep.Shots), rep.N)
	}
	counts := rep.Counts()
	if counts.Crash != 3 {
		t.Errorf("crash count = %d, want 3 (%+v)", counts.Crash, counts)
	}
	if counts.Total() != 9 {
		t.Errorf("classified %d shots, want all 9 (%+v)", counts.Total(), counts)
	}
	// With workers=1, calls arrive in shot order: golden is call 1, so
	// shots 1, 4, 7 (calls 3, 6, 9) are the crashed ones.
	for _, want := range []int{1, 4, 7} {
		if rep.Shots[want].Outcome != OutcomeCrash {
			t.Errorf("shot %d = %v, want crash", want, rep.Shots[want].Outcome)
		}
	}
}

func TestPanickingWorkloadParallel(t *testing.T) {
	c := faultyCampaign(t, sim.InjectionConfig(), "panicky-par", func(call int64, s *sim.Session) error {
		if call%3 == 0 {
			panic("boom")
		}
		return tinyDispatch(t, s)
	})
	rep, err := c.Run(context.Background(), RunConfig{N: 12, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("campaign incomplete: %d/%d shots", len(rep.Shots), rep.N)
	}
	// Calls 2..13 run concurrently; which shots crash is schedule
	// dependent, but the count (calls 3, 6, 9, 12) is not.
	if counts := rep.Counts(); counts.Crash != 4 {
		t.Errorf("crash count = %d, want 4 (%+v)", counts.Crash, counts)
	}
}

func TestBudgetExhaustionClassifiedHang(t *testing.T) {
	// Injected runs livelock; the machine's MaxInstructions watchdog
	// must surface as OutcomeHang, not OutcomeDUE.
	cfg := sim.InjectionConfig()
	cfg.GPU.MaxInstructions = 500
	c := faultyCampaign(t, cfg, "livelock", func(call int64, s *sim.Session) error {
		s.OutputWords(gpu.Lanes)
		return s.Run(gpu.Dispatch{Prog: spinProgram(t), Waves: 1})
	})
	rep, err := c.Run(context.Background(), RunConfig{N: 6, Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := rep.Counts()
	if counts.Hang != 6 {
		t.Errorf("hang count = %d, want 6 (%+v)", counts.Hang, counts)
	}
	if counts.DUE != 0 {
		t.Errorf("budget exhaustion misclassified as DUE (%+v)", counts)
	}
}

func TestBadAddressClassifiedDUE(t *testing.T) {
	c := faultyCampaign(t, sim.InjectionConfig(), "wild", func(call int64, s *sim.Session) error {
		s.OutputWords(gpu.Lanes)
		return s.Run(gpu.Dispatch{Prog: wildProgram(t), Waves: 1})
	})
	rep, err := c.Run(context.Background(), RunConfig{N: 4, Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if counts := rep.Counts(); counts.DUE != 4 {
		t.Errorf("DUE count = %d, want 4 (%+v)", counts.DUE, counts)
	}
}

func TestSerialParallelEquality(t *testing.T) {
	// The determinism property behind checkpoint/resume and -workers:
	// any worker count produces bit-identical reports.
	c := vecaddCampaign(t)
	const n = 24
	for _, seed := range []int64{3, 11} {
		ref, err := c.Run(context.Background(), RunConfig{N: n, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := c.Run(context.Background(), RunConfig{N: n, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Shots, got.Shots) {
				t.Fatalf("seed %d: workers=%d report differs from serial", seed, workers)
			}
			if !reflect.DeepEqual(ref.Results(), got.Results()) {
				t.Fatalf("seed %d: workers=%d results differ from serial", seed, workers)
			}
		}
	}
}

func TestCancelDrainsAndResumeCompletes(t *testing.T) {
	c := vecaddCampaign(t)
	const n, seed = 16, 3
	ref, err := c.Run(context.Background(), RunConfig{N: n, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var collected atomic.Int64
	partial, err := c.Run(ctx, RunConfig{
		N: n, Seed: seed, Workers: 2,
		OnShot: func(Shot) {
			if collected.Add(1) == 4 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial.Complete() || len(partial.Shots) < 4 {
		t.Fatalf("partial run has %d/%d shots", len(partial.Shots), n)
	}

	resumed, err := c.Run(context.Background(), RunConfig{
		N: n, Seed: seed, Workers: 2, Completed: partial.Shots,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Shots, resumed.Shots) {
		t.Fatal("resumed campaign differs from uninterrupted run")
	}
}

func TestTimeoutReturnsPartialReport(t *testing.T) {
	c := vecaddCampaign(t)
	rep, err := c.Run(context.Background(), RunConfig{N: 64, Seed: 3, Workers: 2, Timeout: time.Nanosecond})
	if err == nil {
		return // astronomically unlikely: the whole campaign beat the clock
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if rep == nil || rep.Complete() {
		t.Fatal("expected a partial report")
	}
}

func TestErrorBudgetAbortsGracefully(t *testing.T) {
	infra := func(call int64, s *sim.Session) error {
		return fmt.Errorf("scratch disk on fire (call %d)", call)
	}
	c := faultyCampaign(t, sim.InjectionConfig(), "broken", infra)
	rep, err := c.Run(context.Background(), RunConfig{N: 20, Seed: 1, Workers: 1, MaxErrors: 3})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if rep.Complete() {
		t.Fatal("budget-aborted campaign should not complete")
	}
	if got := rep.InfraErrors(); got < 4 {
		t.Errorf("recorded %d failed shots, want >= 4", got)
	}
	for _, s := range rep.Shots {
		if !strings.Contains(s.Err, "infrastructure") {
			t.Fatalf("shot error %q does not mark infrastructure failure", s.Err)
		}
	}
}

func TestNoBudgetRecordsAllFailures(t *testing.T) {
	c := faultyCampaign(t, sim.InjectionConfig(), "broken-all", func(call int64, s *sim.Session) error {
		return errors.New("flaky backend")
	})
	rep, err := c.Run(context.Background(), RunConfig{N: 10, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatalf("unbudgeted campaign should keep going: %v", err)
	}
	if !rep.Complete() || rep.InfraErrors() != 10 {
		t.Fatalf("got %d shots, %d failures; want 10 recorded failures", len(rep.Shots), rep.InfraErrors())
	}
	if len(rep.Results()) != 0 {
		t.Error("failed shots must not appear among classified results")
	}
}

func TestRunMaskInfraErrorsCarrySentinel(t *testing.T) {
	c := faultyCampaign(t, sim.InjectionConfig(), "broken-one", func(call int64, s *sim.Session) error {
		return errors.New("loose cable")
	})
	_, err := c.RunSingle(Target{Cycle: 0, Thread: 0, Reg: 0, Bit: 0})
	if !errors.Is(err, ErrInfra) {
		t.Fatalf("err = %v, want ErrInfra sentinel", err)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	golden := []byte("golden-bytes")
	ck := NewCheckpoint("vecadd", 100, 7, golden)
	ck.Shots = []Shot{
		{Index: 0, Target: Target{Cycle: 12, Thread: 3, Reg: 9, Bit: 31}, Outcome: OutcomeSDC},
		{Index: 1, Target: Target{Cycle: 90, Thread: 1, Reg: 2, Bit: 0}, Outcome: OutcomeHang},
		{Index: 2, Err: "inject: workload: infrastructure failure: loose cable"},
	}
	path := filepath.Join(t.TempDir(), "camp.ckpt.json")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, loaded) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", ck, loaded)
	}
	if err := loaded.Matches("vecadd", 100, 7, golden); err != nil {
		t.Errorf("Matches rejected its own campaign: %v", err)
	}
	for _, bad := range []error{
		loaded.Matches("dct", 100, 7, golden),
		loaded.Matches("vecadd", 99, 7, golden),
		loaded.Matches("vecadd", 100, 8, golden),
		loaded.Matches("vecadd", 100, 7, []byte("other")),
	} {
		if bad == nil {
			t.Error("Matches accepted a mismatched campaign")
		}
	}
}

func TestRunRejectsNegativeN(t *testing.T) {
	c := vecaddCampaign(t)
	if _, err := c.Run(context.Background(), RunConfig{N: -1}); err == nil {
		t.Error("negative N should be rejected")
	}
}
