// Package sim assembles the full APU simulator — memory, cache hierarchy,
// GPU, dataflow graph, and lifetime trackers — and runs workloads on it,
// producing everything MB-AVF analysis needs: per-structure lifetime
// segments, a solved liveness graph, and the cycle count.
package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"mbavf/internal/cache"
	"mbavf/internal/dataflow"
	"mbavf/internal/gpu"
	"mbavf/internal/lifetime"
	"mbavf/internal/mem"
	"mbavf/internal/obs"
)

// Observability series published per finalized run. Counters are created
// once at init; publishing is a handful of atomic adds at Finalize, so
// the simulation hot loops stay untouched.
var (
	obsRuns        = obs.NewCounter("sim.runs")
	obsCycles      = obs.NewCounter("gpu.cycles")
	obsInstrs      = obs.NewCounter("gpu.instructions")
	obsStalls      = obs.NewCounter("gpu.stall_cycles")
	obsL1Hits      = obs.NewCounter("cache.l1.hits")
	obsL1Misses    = obs.NewCounter("cache.l1.misses")
	obsL1Evictions = obs.NewCounter("cache.l1.evictions")
	obsL2Hits      = obs.NewCounter("cache.l2.hits")
	obsL2Misses    = obs.NewCounter("cache.l2.misses")
	obsL2Evictions = obs.NewCounter("cache.l2.evictions")
)

// Config selects the machine shape and which structures to instrument.
type Config struct {
	// MemBytes is the simulated memory size.
	MemBytes int
	// GPU is the compute configuration.
	GPU gpu.Config
	// Caches is the hierarchy configuration.
	Caches cache.HierConfig
	// TrackL1 instruments compute unit 0's L1 data array.
	TrackL1 bool
	// TrackL2 instruments the shared L2 data array.
	TrackL2 bool
	// TrackVGPR instruments compute unit 0's vector register file.
	TrackVGPR bool
	// EnableGraph records the dataflow graph (required for any AVF
	// analysis; disable only for raw fault-injection runs).
	EnableGraph bool
}

// DefaultConfig returns the paper's APU with full instrumentation.
func DefaultConfig() Config {
	return Config{
		MemBytes:    4 << 20,
		GPU:         gpu.DefaultConfig(),
		Caches:      cache.DefaultHierConfig(),
		TrackL1:     true,
		TrackL2:     true,
		TrackVGPR:   true,
		EnableGraph: true,
	}
}

// Fingerprint returns a stable 16-hex-digit digest of the machine shape:
// every field that changes what a simulation run measures. Two configs
// with equal fingerprints produce bit-identical measurement artifacts for
// the same workload, so the run-artifact store keys on it. The canonical
// string spells out every field by name — adding a Config field without
// extending it would silently alias stored artifacts across machine
// shapes, so keep it exhaustive.
func (c Config) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "mem=%d\n", c.MemBytes)
	fmt.Fprintf(h, "gpu.cus=%d gpu.waveslots=%d gpu.vregs=%d gpu.sregs=%d gpu.maxinstrs=%d\n",
		c.GPU.NumCUs, c.GPU.WaveSlotsPerCU, c.GPU.NumVRegs, c.GPU.NumSRegs, c.GPU.MaxInstructions)
	fmt.Fprintf(h, "hier.cus=%d hier.memlat=%d\n", c.Caches.NumCUs, c.Caches.MemLatency)
	fmt.Fprintf(h, "l1.size=%d l1.line=%d l1.ways=%d l1.lat=%d\n",
		c.Caches.L1.SizeBytes, c.Caches.L1.LineBytes, c.Caches.L1.Ways, c.Caches.L1.HitLatency)
	fmt.Fprintf(h, "l2.size=%d l2.line=%d l2.ways=%d l2.lat=%d\n",
		c.Caches.L2.SizeBytes, c.Caches.L2.LineBytes, c.Caches.L2.Ways, c.Caches.L2.HitLatency)
	fmt.Fprintf(h, "track=%t,%t,%t graph=%t\n", c.TrackL1, c.TrackL2, c.TrackVGPR, c.EnableGraph)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// InjectionConfig returns a lean configuration for fault-injection
// campaigns: functional simulation only, no instrumentation.
func InjectionConfig() Config {
	cfg := DefaultConfig()
	cfg.TrackL1 = false
	cfg.TrackL2 = false
	cfg.TrackVGPR = false
	cfg.EnableGraph = false
	return cfg
}

// Region is a byte range of memory holding final program output.
type Region struct {
	Addr uint32
	Len  int
}

// Session is one simulation run: build inputs, dispatch kernels, finalize,
// then analyze.
type Session struct {
	Cfg     Config
	Mem     *mem.Memory
	Graph   *dataflow.Graph
	Hier    *cache.Hierarchy
	Machine *gpu.Machine

	// Label names the run for observability (the workload name when the
	// session was built by Execute); it feeds span labels like
	// "analyze:minife".
	Label string

	L1Tracker   *lifetime.Tracker
	L2Tracker   *lifetime.Tracker
	VGPRTracker *lifetime.Tracker

	outputs   []Region
	allocPtr  uint32
	finalized bool
}

// NewSession builds a fresh simulator.
func NewSession(cfg Config) (*Session, error) {
	return NewSessionContext(context.Background(), cfg)
}

// NewSessionContext builds a fresh simulator whose dispatches poll ctx:
// cancelling it (or exceeding its deadline) aborts the running kernel
// between instructions with the context's error. Background or nil
// contexts cost nothing on the execution path.
func NewSessionContext(ctx context.Context, cfg Config) (*Session, error) {
	if cfg.MemBytes <= 0 {
		return nil, fmt.Errorf("sim: MemBytes must be positive")
	}
	s := &Session{Cfg: cfg, allocPtr: 64}
	if cfg.EnableGraph {
		s.Mem = mem.New(cfg.MemBytes)
		s.Graph = dataflow.NewGraph()
	} else {
		// Without a graph every version is ground: keep none.
		s.Mem = mem.NewUnversioned(cfg.MemBytes)
	}
	var err error
	s.Hier, err = cache.NewHierarchy(cfg.Caches, s.Mem)
	if err != nil {
		return nil, err
	}
	if cfg.TrackL1 {
		sets, ways := s.Hier.L1Slots()
		s.L1Tracker = lifetime.NewTracker(sets*ways, s.Hier.LineBytes())
		s.Hier.TrackL1(0, s.L1Tracker)
	}
	if cfg.TrackL2 {
		sets, ways := s.Hier.L2Slots()
		s.L2Tracker = lifetime.NewTracker(sets*ways, s.Hier.LineBytes())
		s.Hier.TrackL2(s.L2Tracker)
	}
	s.Machine, err = gpu.New(cfg.GPU, s.Mem, s.Hier)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		s.Machine.SetCancel(ctx.Err)
	}
	if cfg.TrackVGPR {
		s.VGPRTracker = lifetime.NewTracker(cfg.GPU.VGPRThreads()*cfg.GPU.NumVRegs, 4)
		s.Machine.TrackVGPR(0, s.VGPRTracker)
	}
	if cfg.EnableGraph {
		s.Machine.AttachGraph(s.Graph)
	}
	return s, nil
}

// Alloc reserves n bytes of memory, 64-byte aligned, and returns the base
// address.
func (s *Session) Alloc(n int) uint32 {
	addr := s.allocPtr
	s.allocPtr += uint32((n + 63) &^ 63)
	if int(s.allocPtr) > s.Mem.Size() {
		panic(fmt.Sprintf("sim: allocation of %d bytes exhausts %d-byte memory", n, s.Mem.Size()))
	}
	return addr
}

// InputWords allocates and initializes an input buffer of 32-bit words.
func (s *Session) InputWords(vals []uint32) (uint32, error) {
	addr := s.Alloc(4 * len(vals))
	return addr, s.Mem.SetInputWords(s.Graph, addr, vals)
}

// InputBytes allocates and initializes a byte input buffer.
func (s *Session) InputBytes(vals []byte) (uint32, error) {
	addr := s.Alloc(len(vals))
	return addr, s.Mem.SetInput(s.Graph, addr, vals)
}

// OutputWords allocates an output buffer of n 32-bit words and declares it
// as final program output.
func (s *Session) OutputWords(n int) uint32 {
	addr := s.Alloc(4 * n)
	s.DeclareOutput(addr, 4*n)
	return addr
}

// OutputBytesBuf allocates an n-byte output buffer and declares it as
// final program output.
func (s *Session) OutputBytesBuf(n int) uint32 {
	addr := s.Alloc(n)
	s.DeclareOutput(addr, n)
	return addr
}

// ScratchWords allocates a buffer that is not program output (intermediate
// data; writes to it that are never consumed are dynamically dead).
func (s *Session) ScratchWords(n int) uint32 { return s.Alloc(4 * n) }

// DeclareOutput marks [addr, addr+n) as final program output.
func (s *Session) DeclareOutput(addr uint32, n int) {
	s.outputs = append(s.outputs, Region{Addr: addr, Len: n})
}

// Outputs returns the declared output regions.
func (s *Session) Outputs() []Region { return s.outputs }

// Run executes one kernel dispatch.
func (s *Session) Run(d gpu.Dispatch) error { return s.Machine.RunDispatch(d) }

// Finalize flushes caches (resolving dirty state into writeback events),
// marks outputs live, solves the dataflow graph, and closes trackers. It
// must be called exactly once, after the last dispatch.
func (s *Session) Finalize() error {
	if s.finalized {
		return fmt.Errorf("sim: session already finalized")
	}
	s.finalized = true
	s.Machine.Finish()
	end := s.Machine.Cycles()
	// Solve before the trackers seal: the graph drops its recording
	// pages, so they are no longer reachable while a tracker holds both
	// its log and the arena it seals into, the run's peak.
	if s.Graph != nil {
		for _, r := range s.outputs {
			if err := s.Mem.MarkOutput(s.Graph, r.Addr, r.Len, end); err != nil {
				return err
			}
		}
		s.Graph.Solve()
	}
	for _, t := range []*lifetime.Tracker{s.VGPRTracker, s.L1Tracker, s.L2Tracker} {
		if t != nil {
			t.Finish(end)
		}
	}
	s.publishObs()
	return nil
}

// publishObs rolls the run's pipeline and cache statistics into the
// observability counters.
func (s *Session) publishObs() {
	if !obs.Enabled() {
		return
	}
	obsRuns.Add(1)
	obsCycles.Add(s.Machine.Cycles())
	obsInstrs.Add(s.Machine.Instructions())
	obsStalls.Add(s.Machine.StallCycles())
	cs := s.Hier.Stats()
	obsL1Hits.Add(cs.L1Hits)
	obsL1Misses.Add(cs.L1Misses)
	obsL1Evictions.Add(cs.L1Evictions)
	obsL2Hits.Add(cs.L2Hits)
	obsL2Misses.Add(cs.L2Misses)
	obsL2Evictions.Add(cs.L2Evictions)
}

// Cycles returns the total simulated cycles.
func (s *Session) Cycles() uint64 { return s.Machine.Cycles() }

// OutputData concatenates the contents of all declared output regions, in
// declaration order — the program result compared against golden output.
func (s *Session) OutputData() ([]byte, error) {
	var out []byte
	for _, r := range s.outputs {
		b, err := s.Mem.Bytes(r.Addr, r.Len)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// Workload is a complete benchmark recipe: it allocates inputs, dispatches
// one or more kernel passes, and declares outputs.
//
// Run must be deterministic: on a fresh session of the same Config it
// dispatches the same programs with the same inputs and, absent a fault,
// produces the same output. Fault injection rests on this twice: an
// injected run is classified by comparing its output with a fault-free
// golden run, and a shot whose fault provably cannot reach any register a
// program reads is classified masked without simulating the rest of it
// (see package inject).
type Workload struct {
	// Name identifies the benchmark ("minife", "dct", ...).
	Name string
	// Description says what access pattern the workload exercises.
	Description string
	// Run executes the workload on a fresh session.
	Run func(s *Session) error
}

// Execute runs workload w on a fresh session with the given config and
// finalizes it.
func Execute(w Workload, cfg Config) (*Session, error) {
	return ExecuteContext(context.Background(), w, cfg)
}

// ExecuteContext is Execute under a context: the workload's dispatches
// poll ctx and a cancellation aborts the run with the context's error.
func ExecuteContext(ctx context.Context, w Workload, cfg Config) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan2("simulate:", w.Name)
	defer sp.End()
	s, err := NewSessionContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s.Label = w.Name
	if err := w.Run(s); err != nil {
		return nil, fmt.Errorf("sim: workload %s: %w", w.Name, err)
	}
	if err := s.Finalize(); err != nil {
		return nil, err
	}
	return s, nil
}
