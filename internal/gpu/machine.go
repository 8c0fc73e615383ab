package gpu

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mbavf/internal/cache"
	"mbavf/internal/dataflow"
	"mbavf/internal/lifetime"
	"mbavf/internal/mem"
)

// Config sizes the GPU.
type Config struct {
	// NumCUs is the number of compute units (4 in the paper's APU).
	NumCUs int
	// WaveSlotsPerCU is the number of wavefronts resident on a CU at
	// once; their registers coexist in the CU's VGPR file.
	WaveSlotsPerCU int
	// NumVRegs is the number of 32-bit vector registers per wavefront.
	NumVRegs int
	// NumSRegs is the number of scalar registers per wavefront.
	NumSRegs int
	// MaxInstructions bounds total dynamic wavefront instructions; runs
	// exceeding it trap (guards against injection-corrupted infinite
	// loops).
	MaxInstructions uint64
}

// DefaultConfig mirrors the paper's APU GPU: 4 compute units, 4 resident
// wavefronts per CU, 32 VGPRs.
func DefaultConfig() Config {
	return Config{
		NumCUs:          4,
		WaveSlotsPerCU:  4,
		NumVRegs:        32,
		NumSRegs:        16,
		MaxInstructions: 64 << 20,
	}
}

// VGPRThreads returns the number of threads whose registers coexist in one
// CU's VGPR file: resident wave slots times the 16 lanes.
func (c Config) VGPRThreads() int { return c.WaveSlotsPerCU * Lanes }

// Dispatch launches Waves wavefronts of Prog. Args are copied into scalar
// registers s0.. of every wavefront at launch.
type Dispatch struct {
	Prog  *Program
	Waves int
	Args  []uint32
}

// Injection flips Mask bits of 32-bit register Reg of Thread (slot*16 +
// lane) in the given CU's VGPR file at the first instruction issue at or
// after Cycle. If the targeted wave slot is unoccupied at that time the
// flip lands in unallocated state and is naturally masked; so is a flip
// of a register the resident wave's program never names, since a wave's
// registers die with it.
type Injection struct {
	Cycle   uint64
	CU      int
	Thread  int
	Reg     int
	Mask    uint32
	applied bool
}

type execEntry struct {
	saved    uint16
	thenMask uint16
}

type wave struct {
	id      int
	cu      int
	slot    int
	prog    *Program
	args    []uint32
	pc      int
	readyAt uint64
	done    bool
	started bool

	vreg    []uint32 // reg*Lanes + lane
	vregVer []dataflow.VersionID
	sreg    []uint32
	vcc     uint16
	vccVer  [Lanes]dataflow.VersionID
	exec    uint16
	stack   []execEntry
	instrs  uint64
}

// Machine is the GPU: compute units, wavefront scheduler, register state,
// and hooks into memory, caches, the dataflow graph, and the VGPR
// lifetime tracker.
type Machine struct {
	cfg    Config
	memory *mem.Memory
	caches *cache.Hierarchy
	graph  *dataflow.Graph

	vgprTracker *lifetime.Tracker
	trackCU     int

	slots    []*wave // cu*WaveSlotsPerCU + slot; nil when free
	cuFree   []uint64
	endCycle uint64
	instrs   uint64
	stalls   uint64

	injections []Injection
	nextInj    int

	// programs lists every distinct program dispatched, in first-dispatch
	// order.
	programs []*Program

	// stopInert makes a run stop with ErrInert once every injection has
	// been applied and none could reach a register a program reads;
	// liveInj records that one could, inert that the run stopped.
	stopInert bool
	liveInj   bool
	inert     bool

	// cancel, when non-nil, is polled between instructions (every
	// cancelCheckMask+1 issues); a non-nil return aborts the dispatch
	// with that error. It is how context cancellation reaches the
	// otherwise context-free execution loop.
	cancel func() error
}

// cancelCheckMask throttles cancellation polls to one per 4096
// instructions, keeping the hook invisible on the issue path.
const cancelCheckMask = 4096 - 1

// ErrInert is returned by RunDispatch on a machine set to StopWhenInert
// once every injection has been applied without effect.
var ErrInert = errors.New("gpu: every injection is inert; run stopped")

// New builds a machine over the given memory and cache hierarchy.
func New(cfg Config, memory *mem.Memory, caches *cache.Hierarchy) (*Machine, error) {
	if cfg.NumCUs < 1 || cfg.WaveSlotsPerCU < 1 || cfg.NumVRegs < 1 || cfg.NumSRegs < 1 {
		return nil, fmt.Errorf("gpu: invalid config %+v", cfg)
	}
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = DefaultConfig().MaxInstructions
	}
	return &Machine{
		cfg:     cfg,
		memory:  memory,
		caches:  caches,
		slots:   make([]*wave, cfg.NumCUs*cfg.WaveSlotsPerCU),
		cuFree:  make([]uint64, cfg.NumCUs),
		trackCU: -1,
	}, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// AttachGraph enables dataflow recording into g. It must be set before any
// dispatch runs and cannot be combined with injections.
func (m *Machine) AttachGraph(g *dataflow.Graph) { m.graph = g }

// SetCancel installs a cancellation poll (typically context.Context.Err)
// checked periodically during dispatch execution. A non-nil return makes
// the running dispatch stop and surface that error; the machine is not
// usable afterwards. A nil hook disables polling.
func (m *Machine) SetCancel(f func() error) { m.cancel = f }

// TrackVGPR attaches a lifetime tracker to the given CU's vector register
// file. The tracker must have VGPRThreads()*NumVRegs words of 4 bytes:
// word = thread*NumVRegs + reg with thread = slot*16 + lane.
func (m *Machine) TrackVGPR(cu int, t *lifetime.Tracker) {
	m.trackCU = cu
	m.vgprTracker = t
}

// AddInjection schedules a register fault. All injections must be added
// before running.
func (m *Machine) AddInjection(inj Injection) {
	m.injections = append(m.injections, inj)
	sort.SliceStable(m.injections, func(i, j int) bool {
		return m.injections[i].Cycle < m.injections[j].Cycle
	})
}

// StopWhenInert makes the machine stop the running dispatch with ErrInert
// as soon as every scheduled injection has been applied and each one
// landed in an empty wave slot, outside the register file, or in a
// register the resident wave's program never names. Such a run can only
// go on exactly as the fault-free run did, so fault-injection campaigns
// need not simulate the rest of it. Every later dispatch fails the same
// way, and Inert reports the stop.
func (m *Machine) StopWhenInert() { m.stopInert = true }

// Inert reports whether a StopWhenInert machine stopped its run because
// every injection was inert.
func (m *Machine) Inert() bool { return m.inert }

// Programs returns every distinct program dispatched so far, in order of
// first dispatch.
func (m *Machine) Programs() []*Program { return m.programs }

// Cycles returns the last cycle any instruction completed.
func (m *Machine) Cycles() uint64 { return m.endCycle }

// Instructions returns the total dynamic wavefront instructions executed.
func (m *Machine) Instructions() uint64 { return m.instrs }

// StallCycles returns the cycles compute units spent idle waiting for an
// issued wavefront's operands (memory and execution latency) — the
// pipeline-stall measure the observability layer reports per run.
func (m *Machine) StallCycles() uint64 { return m.stalls }

func (m *Machine) vgprWord(slot, lane, reg int) int {
	return (slot*Lanes+lane)*m.cfg.NumVRegs + reg
}

func (m *Machine) newWave(id int, d Dispatch) *wave {
	w := &wave{
		id:      id,
		prog:    d.Prog,
		args:    d.Args,
		vreg:    make([]uint32, m.cfg.NumVRegs*Lanes),
		vregVer: make([]dataflow.VersionID, m.cfg.NumVRegs*Lanes),
		sreg:    make([]uint32, m.cfg.NumSRegs),
		exec:    0xFFFF,
	}
	copy(w.sreg, d.Args)
	return w
}

func (m *Machine) admit(w *wave, cu, slot int, at uint64) {
	w.cu = cu
	w.slot = slot
	w.readyAt = at
	w.started = true
	m.slots[cu*m.cfg.WaveSlotsPerCU+slot] = w
}

// applyInjections flips registers for every injection due at or before t.
func (m *Machine) applyInjections(t uint64) {
	for m.nextInj < len(m.injections) && m.injections[m.nextInj].Cycle <= t {
		inj := &m.injections[m.nextInj]
		m.nextInj++
		if inj.applied {
			continue
		}
		inj.applied = true
		if inj.CU < 0 || inj.CU >= m.cfg.NumCUs {
			continue
		}
		slot := inj.Thread / Lanes
		lane := inj.Thread % Lanes
		if slot < 0 || slot >= m.cfg.WaveSlotsPerCU || inj.Reg < 0 || inj.Reg >= m.cfg.NumVRegs {
			continue
		}
		w := m.slots[inj.CU*m.cfg.WaveSlotsPerCU+slot]
		if w == nil {
			continue // empty slot: fault in unallocated state, masked
		}
		w.vreg[inj.Reg*Lanes+lane] ^= inj.Mask
		if inj.Mask != 0 && w.prog.NamesVReg(inj.Reg) {
			m.liveInj = true
		}
	}
	if m.stopInert && !m.liveInj && m.nextInj == len(m.injections) && m.nextInj > 0 {
		m.inert = true
	}
}

// RunDispatch executes one kernel dispatch to completion. L1 caches are
// flushed at the dispatch boundary, matching GPU kernel-completion
// semantics; this is what makes multi-pass kernels with cross-wavefront
// dataflow coherent. It returns an error if the kernel trapped.
func (m *Machine) RunDispatch(d Dispatch) error {
	if d.Prog == nil || d.Waves < 1 {
		return fmt.Errorf("gpu: dispatch needs a program and at least one wave")
	}
	if m.inert {
		return ErrInert
	}
	if m.cancel != nil {
		if err := m.cancel(); err != nil {
			return fmt.Errorf("gpu: dispatch cancelled: %w", err)
		}
	}
	if d.Prog.NumVRegs > m.cfg.NumVRegs || d.Prog.NumSRegs > m.cfg.NumSRegs {
		return fmt.Errorf("gpu: program %q needs %d vregs / %d sregs, machine has %d / %d",
			d.Prog.Name, d.Prog.NumVRegs, d.Prog.NumSRegs, m.cfg.NumVRegs, m.cfg.NumSRegs)
	}
	if len(d.Args) > m.cfg.NumSRegs {
		return fmt.Errorf("gpu: %d dispatch args exceed %d scalar registers", len(d.Args), m.cfg.NumSRegs)
	}
	if !slices.Contains(m.programs, d.Prog) {
		m.programs = append(m.programs, d.Prog)
	}
	var queue []*wave
	for i := 0; i < d.Waves; i++ {
		queue = append(queue, m.newWave(i, d))
	}
	// Fill free slots round-robin across CUs.
	for cu := 0; cu < m.cfg.NumCUs && len(queue) > 0; cu++ {
		for slot := 0; slot < m.cfg.WaveSlotsPerCU && len(queue) > 0; slot++ {
			if m.slots[cu*m.cfg.WaveSlotsPerCU+slot] == nil {
				m.admit(queue[0], cu, slot, m.endCycle)
				queue = queue[1:]
			}
		}
	}
	for {
		// Pick the runnable wave with the earliest possible issue time.
		var w *wave
		var issue uint64
		for _, cand := range m.slots {
			if cand == nil || cand.done {
				continue
			}
			at := max(m.cuFree[cand.cu], cand.readyAt)
			if w == nil || at < issue {
				w, issue = cand, at
			}
		}
		if w == nil {
			break
		}
		m.stalls += issue - m.cuFree[w.cu] // CU idle until the wave's operands arrive
		m.applyInjections(issue)
		if m.inert {
			return ErrInert
		}
		lat, err := m.step(w, issue)
		if err != nil {
			m.endCycle = max(m.endCycle, issue+1)
			return fmt.Errorf("gpu: wave %d of %q at pc %d: %w", w.id, w.prog.Name, w.pc, err)
		}
		m.cuFree[w.cu] = issue + 1
		w.readyAt = issue + lat
		m.endCycle = max(m.endCycle, issue+lat)
		m.instrs++
		if m.instrs > m.cfg.MaxInstructions {
			return trapf(TrapBudget, "gpu: instruction budget %d exceeded (livelock?)", m.cfg.MaxInstructions)
		}
		if m.cancel != nil && m.instrs&cancelCheckMask == 0 {
			if err := m.cancel(); err != nil {
				m.endCycle = max(m.endCycle, issue+1)
				return fmt.Errorf("gpu: dispatch cancelled: %w", err)
			}
		}
		if w.done {
			idx := w.cu*m.cfg.WaveSlotsPerCU + w.slot
			m.slots[idx] = nil
			if len(queue) > 0 {
				m.admit(queue[0], w.cu, w.slot, issue+1)
				queue = queue[1:]
			}
		}
	}
	m.caches.FlushL1s(m.endCycle)
	return nil
}

// Finish flushes the whole cache hierarchy at the end of simulation so
// dirty state resolves into writeback events. Call once after the last
// dispatch; whoever attached the VGPR tracker finishes it.
func (m *Machine) Finish() {
	m.caches.FlushAll(m.endCycle)
}
