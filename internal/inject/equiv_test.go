package inject

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mbavf/internal/gpu"
	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// oracle returns a copy of c whose shots all take the full-simulation
// path.
func (c *Campaign) oracle() *Campaign {
	o := *c
	o.fullSim = true
	return &o
}

// TestShortcutsMatchFullSimulation is the contract of the masked-shot
// shortcuts: every shot, single-bit and multi-bit, classifies exactly as
// full simulation does, for any worker count. It also requires each
// shortcut to have fired, so the comparison is never vacuous. Workloads
// run in parallel, so campaigns also share the process concurrently.
func TestShortcutsMatchFullSimulation(t *testing.T) {
	names := []string{"histogram", "minife", "matmul", "kmeans", "dct", "srad"}
	if testing.Short() {
		names = []string{"histogram", "matmul", "dct"}
	}
	obs.Enable()
	defer obs.Disable()
	static0, inert0 := obsProvenStatic.Value(), obsProvenInert.Value()
	t.Run("workloads", func(t *testing.T) {
		for _, name := range names {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				checkShortcuts(t, name)
			})
		}
	})
	static, inert := obsProvenStatic.Value()-static0, obsProvenInert.Value()-inert0
	t.Logf("shortcut shots: %d static, %d inert", static, inert)
	if static == 0 || inert == 0 {
		t.Errorf("a shortcut never fired (static %d, inert %d): the comparison proves nothing", static, inert)
	}
}

// checkShortcuts compares one workload's shortcut campaign with the
// full-simulation oracle over two seeds.
func checkShortcuts(t *testing.T, name string) {
	const n, groupShots = 50, 10
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewCampaign(w, sim.InjectionConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := fast.oracle()
	ctx := context.Background()
	for _, seed := range []int64{1, 42} {
		want, err := full.Run(ctx, RunConfig{N: n, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			got, err := fast.Run(ctx, RunConfig{N: n, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Shots {
				if !reflect.DeepEqual(got.Shots[i], want.Shots[i]) {
					t.Errorf("seed %d workers %d: shot %d = %+v, full simulation %+v",
						seed, workers, i, got.Shots[i], want.Shots[i])
				}
			}
		}
		// Multi-bit groups of 2-4 bits around the first shots' targets,
		// and the Table II study over the SDC bits.
		for _, s := range want.Shots[:groupShots] {
			for m := 2; m <= 4; m++ {
				mask := groupMask(s.Target.Bit, m)
				wantO, wantErr := full.RunMask(s.Target, mask)
				gotO, gotErr := fast.RunMask(s.Target, mask)
				if gotO != wantO || (gotErr == nil) != (wantErr == nil) {
					t.Errorf("seed %d: %d-bit group at %+v = %v/%v, full simulation %v/%v",
						seed, m, s.Target, gotO, gotErr, wantO, wantErr)
				}
			}
		}
		sdc := SDCBits(want.Results())
		wantRows, err := full.InterferenceStudy(context.Background(), sdc, []int{2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		gotRows, err := fast.InterferenceStudy(context.Background(), sdc, []int{2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Errorf("seed %d: interference %+v, full simulation %+v", seed, gotRows, wantRows)
		}
	}
}

// understatedWorkload stores tid into its output through v5 and v7 with
// a hand-built program declaring a budget of one vector register.
func understatedWorkload() sim.Workload {
	prog := &gpu.Program{Name: "understated", NumVRegs: 1, NumSRegs: 1, Code: []gpu.Instr{
		{Op: gpu.OpVMov, Dst: gpu.V(5), Src: [3]gpu.Operand{gpu.Tid()}},
		{Op: gpu.OpVShl, Dst: gpu.V(7), Src: [3]gpu.Operand{gpu.V(5), gpu.Imm(2)}},
		{Op: gpu.OpVAdd, Dst: gpu.V(7), Src: [3]gpu.Operand{gpu.V(7), gpu.S(0)}},
		{Op: gpu.OpVStore, Src: [3]gpu.Operand{gpu.V(7), gpu.Imm(0), gpu.V(5)}},
		{Op: gpu.OpEndPgm},
	}}
	return sim.Workload{Name: "understated", Run: func(s *sim.Session) error {
		out := s.OutputWords(gpu.Lanes)
		return s.Run(gpu.Dispatch{Prog: prog, Waves: 1, Args: []uint32{out}})
	}}
}

func TestUnderstatedProgramNotSkipped(t *testing.T) {
	c, err := NewCampaign(understatedWorkload(), sim.InjectionConfig())
	if err != nil {
		t.Fatal(err)
	}
	// v5 is written at cycle 0 and stored at cycle 3: a flip at cycle 2
	// corrupts the output although NumVRegs claims only v0.
	for _, tc := range []struct {
		tgt  Target
		want Outcome
	}{
		{Target{Cycle: 2, Thread: 3, Reg: 5, Bit: 4}, OutcomeSDC},
		{Target{Cycle: 2, Thread: 3, Reg: 0, Bit: 4}, OutcomeMasked},
	} {
		for _, camp := range []*Campaign{c, c.oracle()} {
			got, err := camp.RunSingle(tc.tgt)
			if err != nil || got != tc.want {
				t.Errorf("fullSim=%v %+v: %v, %v; want %v", camp.fullSim, tc.tgt, got, err, tc.want)
			}
		}
	}
}

func TestInertStopClassifiedFromMachine(t *testing.T) {
	// An injected run's flip lands in empty wave slot 1 (the kernel has
	// one wave), so the machine stops it with gpu.ErrInert. However the
	// workload handles that error, the shot is masked — as full
	// simulation, where nothing stops, also finds.
	for _, tc := range []struct {
		name   string
		handle func(error) error
	}{
		{"returns", func(err error) error { return err }},
		{"wraps", func(err error) error {
			if err != nil {
				return fmt.Errorf("pass 1: %w", err)
			}
			return nil
		}},
		{"swallows", func(error) error { return nil }},
		{"panics", func(err error) error {
			if err != nil {
				panic(err)
			}
			return nil
		}},
	} {
		w := sim.Workload{Name: "inert-" + tc.name, Run: func(s *sim.Session) error {
			out := s.OutputWords(gpu.Lanes)
			err := s.Run(gpu.Dispatch{Prog: tinyProgram(t), Waves: 1, Args: []uint32{out}})
			return tc.handle(err)
		}}
		c, err := NewCampaign(w, sim.InjectionConfig())
		if err != nil {
			t.Fatal(err)
		}
		tgt := Target{Cycle: 1, Thread: gpu.Lanes, Reg: 1, Bit: 0}
		for _, camp := range []*Campaign{c, c.oracle()} {
			if got, err := camp.RunSingle(tgt); err != nil || got != OutcomeMasked {
				t.Errorf("%s, fullSim=%v: %v, %v; want masked", tc.name, camp.fullSim, got, err)
			}
		}
	}
}
