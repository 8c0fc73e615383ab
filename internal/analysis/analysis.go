// Package analysis turns a recorded run and a question (a structure and
// an interleaving) into the MB-AVF analyzer that answers it. It is the
// one place that knows which lifetime tracker each structure reads,
// which bit layout each interleaving style gives it in the run's
// geometry, and the per-structure rules of the solver: one version per
// register-file word, and the paper's Section VIII rule that detection
// preempts SDC under inter-thread register interleaving. The public
// query API and every experiment build their analyzers here.
package analysis

import (
	"fmt"

	"mbavf/internal/core"
	"mbavf/internal/dataflow"
	"mbavf/internal/interleave"
	"mbavf/internal/lifetime"
	"mbavf/internal/sim"
	"mbavf/internal/store"
)

// Structure names an analyzable hardware structure.
type Structure string

// Analyzable structures.
const (
	L1   Structure = "l1"   // compute unit 0's L1 data array
	L2   Structure = "l2"   // the shared L2 data array
	VGPR Structure = "vgpr" // compute unit 0's vector register file
)

// Style names an interleaving style. The caches take Logical,
// WayPhysical and IndexPhysical; the register file takes IntraThread
// and InterThread.
type Style string

// Interleaving styles.
const (
	Logical       Style = "logical"
	WayPhysical   Style = "way-physical"
	IndexPhysical Style = "index-physical"
	IntraThread   Style = "intra-thread"
	InterThread   Style = "inter-thread"
)

// spec is what one structure fixes: where its tracker lives in a
// materialized run and in a stored one, the layouts its styles build
// from the run's geometry, and whether its tracker records one version
// per word.
type spec struct {
	tracker      func(*sim.Measurements) *lifetime.Tracker
	decode       func(*store.Artifact) (*lifetime.Tracker, error)
	layout       func(m *sim.Measurements, style Style, factor int) (*interleave.Layout, error)
	wordVersions bool
}

var specs = map[Structure]spec{
	L1: {
		tracker: func(m *sim.Measurements) *lifetime.Tracker { return m.L1Tracker },
		decode:  (*store.Artifact).L1,
		layout: func(m *sim.Measurements, style Style, factor int) (*interleave.Layout, error) {
			return arrayLayout(style, m.L1Sets, m.L1Ways, m.LineBytes*8, factor)
		},
	},
	L2: {
		tracker: func(m *sim.Measurements) *lifetime.Tracker { return m.L2Tracker },
		decode:  (*store.Artifact).L2,
		layout: func(m *sim.Measurements, style Style, factor int) (*interleave.Layout, error) {
			return arrayLayout(style, m.L2Sets, m.L2Ways, m.LineBytes*8, factor)
		},
	},
	VGPR: {
		tracker:      func(m *sim.Measurements) *lifetime.Tracker { return m.VGPRTracker },
		decode:       (*store.Artifact).VGPR,
		layout:       registerLayout,
		wordVersions: true,
	},
}

// arrayLayout builds the layout of a cache data array of sets × ways
// lines of lineBits bits each.
func arrayLayout(style Style, sets, ways, lineBits, factor int) (*interleave.Layout, error) {
	switch style {
	case Logical:
		return interleave.Logical(sets*ways, lineBits, factor)
	case WayPhysical:
		return interleave.WayPhysical(sets, ways, lineBits, factor)
	case IndexPhysical:
		return interleave.IndexPhysical(sets, ways, lineBits, factor)
	}
	return nil, fmt.Errorf("interleaving style %q not valid for caches", style)
}

// registerLayout builds the layout of the register file: threads × regs
// registers of 32 bits each.
func registerLayout(m *sim.Measurements, style Style, factor int) (*interleave.Layout, error) {
	switch style {
	case IntraThread:
		return interleave.IntraThread(m.VGPRThreads, m.VGPRRegs, 32, factor)
	case InterThread:
		return interleave.InterThread(m.VGPRThreads, m.VGPRRegs, 32, factor)
	}
	return nil, fmt.Errorf("interleaving style %q not valid for register files", style)
}

// Run is one recorded run as the analysis reads it.
type Run struct {
	// M holds the run's workload name, cycle count and geometry, and,
	// for a materialized run, its trackers and graph.
	M *sim.Measurements
	// Art, when non-nil, backs a run loaded from a store: M holds only
	// the artifact's metadata, and the trackers and graph decode from
	// Art on first use.
	Art *store.Artifact
}

// Graph returns the run's solved liveness graph.
func (r Run) Graph() (*dataflow.Graph, error) {
	if r.Art != nil {
		return r.Art.Graph()
	}
	if r.M.Graph == nil {
		return nil, fmt.Errorf("analysis: run has no liveness graph")
	}
	return r.M.Graph, nil
}

// Tracker returns the structure's lifetime tracker.
func (r Run) Tracker(st Structure) (*lifetime.Tracker, error) {
	sp, ok := specs[st]
	if !ok {
		return nil, unknown(st)
	}
	if r.Art != nil {
		return sp.decode(r.Art)
	}
	if tr := sp.tracker(r.M); tr != nil {
		return tr, nil
	}
	return nil, fmt.Errorf("analysis: run has no %s instrumentation", st)
}

func unknown(st Structure) error {
	return fmt.Errorf("unknown structure %q (have l1, l2, vgpr)", st)
}

// A Plan is a question checked against a run's geometry: its layout is
// built, and none of the run's sections has been read yet.
type Plan struct {
	// Layout is the structure's bit layout under the question's
	// interleaving.
	Layout  *interleave.Layout
	run     Run
	st      Structure
	preempt bool
}

// Plan builds the layout that style and factor give the structure in
// the run's geometry. It reads only M's geometry, so a style the
// structure does not take, or a factor its geometry cannot take, fails
// here without decoding any section of a stored run.
func (r Run) Plan(st Structure, style Style, factor int) (*Plan, error) {
	sp, ok := specs[st]
	if !ok {
		return nil, unknown(st)
	}
	lay, err := sp.layout(r.M, style, factor)
	if err != nil {
		return nil, err
	}
	return &Plan{Layout: lay, run: r, st: st, preempt: style == InterThread}, nil
}

// Analyzer reads the plan's graph and tracker and returns the analyzer
// of its question, named after the run's workload.
func (p *Plan) Analyzer() (*core.Analyzer, error) {
	g, err := p.run.Graph()
	if err != nil {
		return nil, err
	}
	tr, err := p.run.Tracker(p.st)
	if err != nil {
		return nil, err
	}
	return &core.Analyzer{
		Name:                 p.run.M.Workload,
		Layout:               p.Layout,
		Tracker:              tr,
		Graph:                g,
		WordVersions:         specs[p.st].wordVersions,
		TotalCycles:          p.run.M.Cycles,
		DetectionPreemptsSDC: p.preempt,
	}, nil
}

// Analyzer builds the analyzer of the structure under the interleaving
// style and factor: Plan, then Plan.Analyzer.
func (r Run) Analyzer(st Structure, style Style, factor int) (*core.Analyzer, error) {
	p, err := r.Plan(st, style, factor)
	if err != nil {
		return nil, err
	}
	return p.Analyzer()
}

// Window returns the length of each of n windows over cycles cycles:
// ceil(cycles/n), never less than one cycle. An n below 1 counts as one
// window.
func Window(cycles uint64, n int) uint64 {
	if n < 1 {
		n = 1
	}
	return max((cycles+uint64(n)-1)/uint64(n), 1)
}
