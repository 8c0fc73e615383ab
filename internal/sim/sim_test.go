package sim

import (
	"testing"

	"mbavf/internal/dataflow"
	"mbavf/internal/gpu"
)

func TestNewSessionDefault(t *testing.T) {
	s, err := NewSession(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.L1Tracker == nil || s.L2Tracker == nil || s.VGPRTracker == nil || s.Graph == nil {
		t.Error("default config should instrument everything")
	}
	sets, ways := s.Hier.L1Slots()
	if s.L1Tracker.Words() != sets*ways {
		t.Errorf("L1 tracker words = %d, want %d", s.L1Tracker.Words(), sets*ways)
	}
	if s.L1Tracker.BytesPerWord() != s.Hier.LineBytes() {
		t.Error("L1 tracker byte width mismatch")
	}
	if s.VGPRTracker.Words() != s.Cfg.GPU.VGPRThreads()*s.Cfg.GPU.NumVRegs {
		t.Error("VGPR tracker word count mismatch")
	}
}

func TestNewSessionInvalid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBytes = 0
	if _, err := NewSession(cfg); err == nil {
		t.Error("zero memory should fail")
	}
}

func TestAllocAlignment(t *testing.T) {
	s, err := NewSession(InjectionConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := s.Alloc(10)
	b := s.Alloc(100)
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not 64B aligned: %d %d", a, b)
	}
	if b < a+64 {
		t.Error("allocations overlap")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	cfg := InjectionConfig()
	cfg.MemBytes = 1024
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on memory exhaustion")
		}
	}()
	s.Alloc(4096)
}

func TestOutputRegionsAndData(t *testing.T) {
	s, err := NewSession(InjectionConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr := s.OutputWords(2)
	if err := s.Mem.StoreWord(addr, 0x01020304, [4]dataflow.VersionID{}); err != nil {
		t.Fatal(err)
	}
	if len(s.Outputs()) != 1 || s.Outputs()[0].Len != 8 {
		t.Errorf("outputs = %+v", s.Outputs())
	}
	data, err := s.OutputData()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8 || data[0] != 4 || data[3] != 1 {
		t.Errorf("output data = %v", data)
	}
}

func TestFinalizeOnce(t *testing.T) {
	w := Workload{Name: "noop", Run: func(s *Session) error {
		b := gpu.NewBuilder("noop")
		b.VMov(gpu.V(0), gpu.Imm(1))
		prog, err := b.Build()
		if err != nil {
			return err
		}
		return s.Run(gpu.Dispatch{Prog: prog, Waves: 1})
	}}
	s, err := Execute(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err == nil {
		t.Error("second Finalize should fail")
	}
	if s.Cycles() == 0 {
		t.Error("no cycles")
	}
}

func TestExecuteWorkloadError(t *testing.T) {
	w := Workload{Name: "bad", Run: func(s *Session) error {
		b := gpu.NewBuilder("bad")
		b.VMov(gpu.V(0), gpu.Imm(-4))
		b.VLoad(gpu.V(1), gpu.V(0), 0)
		prog, err := b.Build()
		if err != nil {
			return err
		}
		return s.Run(gpu.Dispatch{Prog: prog, Waves: 1})
	}}
	if _, err := Execute(w, InjectionConfig()); err == nil {
		t.Error("trapping workload should surface an error")
	}
}

func TestMemoryVersionedOnlyWithGraph(t *testing.T) {
	words := []uint32{0x11223344, 0x55667788}
	for _, tc := range []struct {
		name      string
		cfg       Config
		versioned bool
	}{
		{"instrumented", DefaultConfig(), true},
		{"injection", InjectionConfig(), false},
	} {
		s, err := NewSession(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.InputWords(words)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[dataflow.VersionID]bool{}
		for i := uint32(0); i < uint32(4*len(words)); i++ {
			v := s.Mem.VersionAt(addr + i)
			if !tc.versioned {
				if v != 0 {
					t.Errorf("%s: byte %d at version %d, want ground", tc.name, i, v)
				}
				continue
			}
			if v == 0 || seen[v] {
				t.Errorf("%s: byte %d at version %d, want a fresh version per byte", tc.name, i, v)
			}
			seen[v] = true
		}
		got, err := s.Mem.Words(addr, len(words))
		if err != nil || got[0] != words[0] || got[1] != words[1] {
			t.Errorf("%s: input reads back %v, %v", tc.name, got, err)
		}
	}
}
