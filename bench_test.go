package mbavf

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the corresponding artifact
// (printing its rows on the first iteration with -v via b.Log), so
//
//	go test -bench=. -benchmem
//
// re-derives the full evaluation. Instrumented simulation runs are
// memoized inside the experiments package, so iteration time measures the
// MB-AVF analysis itself, which is the paper's contribution.
//
// The benchmarks default to a representative workload subset
// (minife, matmul, srad) so a full -bench=. pass completes in minutes;
// run cmd/mbavf-exp for the complete benchmark set.

import (
	"context"
	"testing"

	"mbavf/internal/bitgeom"
	"mbavf/internal/ecc"
	"mbavf/internal/experiments"
	"mbavf/internal/interleave"
	"mbavf/internal/obs"
)

var benchOpts = experiments.Options{
	Workloads:  []string{"minife", "matmul", "srad"},
	Injections: 10,
	Seed:       42,
	Windows:    8,
}

func benchExperiment(b *testing.B, name string) {
	e, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Log(t.String())
			}
		}
	}
}

// BenchmarkTable1 regenerates Table I (Ibe et al. fault-width
// distribution by technology node).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2 regenerates Figure 2 (temporal vs spatial MBF MTTF of a
// 32MB cache across raw fault rates).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig4 regenerates Figure 4 (2x1 DUE MB-AVF of the L1 under
// parity with logical / way-physical / index-physical x2 interleaving).
// The obs sub-benchmarks measure the observability layer's cost on the
// same pipeline: "obs=off" is the default disabled path (its overhead
// versus an uninstrumented build must stay within noise), "obs=on" pays
// for live counters and phase timing. One untimed regeneration first
// fills the experiments memo, so neither sub-benchmark pays for the
// simulations and the pair compares the analysis alone.
func BenchmarkFig4(b *testing.B) {
	e, err := experiments.ByName("fig4")
	if err != nil {
		b.Fatal(err)
	}
	obs.Disable()
	if _, err := e.Run(benchOpts); err != nil {
		b.Fatal(err)
	}
	b.Run("obs=off", func(b *testing.B) {
		obs.Disable()
		benchExperiment(b, "fig4")
	})
	b.Run("obs=on", func(b *testing.B) {
		obs.Enable()
		defer func() {
			obs.Disable()
			obs.Reset()
		}()
		benchExperiment(b, "fig4")
	})
}

// BenchmarkFig5 regenerates Figures 5a/5b (MiniFE SB- and MB-AVF over
// time, per interleaving style).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figures 6a/6b (DUE MB-AVF vs fault-mode size
// under parity and SEC-DED with x4 way-physical interleaving).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable2 regenerates Table II (the ACE-interference fault
// injection study) at reduced campaign size.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig8 regenerates Figure 8 (SDC vs DUE MB-AVF for 3x1 faults on
// MiniFE, index- vs way-physical interleaving).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (SDC MB-AVF for 5x1..8x1 faults with
// SEC-DED and x2 interleaving).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (true vs false DUE by fault mode).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable3 regenerates Table III (case-study fault rates).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig11 regenerates Figure 11 (the VGPR protection case study).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// --- component micro-benchmarks ---

// BenchmarkSimulateMinife measures a full instrumented simulation run of
// the minife workload (event tracking phase of the AVF methodology).
func BenchmarkSimulateMinife(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunWorkloadContext(context.Background(), "minife"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeL1 measures one MB-AVF analysis pass (the analysis
// phase) over the minife L1 for a 2x1 mode.
func BenchmarkAnalyzeL1(b *testing.B) {
	run, err := RunWorkloadContext(context.Background(), "minife")
	if err != nil {
		b.Fatal(err)
	}
	il := Interleaving{Style: StyleWayPhysical, Factor: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.AVF(L1, Parity, il, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeVGPR measures one MB-AVF analysis pass over the vector
// register file for a 4x1 mode.
func BenchmarkAnalyzeVGPR(b *testing.B) {
	run, err := RunWorkloadContext(context.Background(), "minife")
	if err != nil {
		b.Fatal(err)
	}
	il := Interleaving{Style: StyleInterThread, Factor: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.AVF(VGPR, Parity, il, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve measures one MB-AVF analysis pass per structure and
// fault mode on the packed solver. The l1/way-x2/2x1 case is the Figure
// 4 analysis path; between them the cases shift rows of every named
// layout family (logical, way- and index-physical, intra- and
// inter-thread).
func BenchmarkSolve(b *testing.B) {
	run, err := RunWorkloadContext(context.Background(), "minife")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name     string
		st       Structure
		il       Interleaving
		scheme   Scheme
		modeBits int
	}{
		{"l1/way-x2/2x1", L1, Interleaving{Style: StyleWayPhysical, Factor: 2}, Parity, 2},
		{"l1/logical-x2/2x1", L1, Interleaving{Style: StyleLogical, Factor: 2}, Parity, 2},
		{"l1/way-x4/4x1", L1, Interleaving{Style: StyleWayPhysical, Factor: 4}, SECDED, 4},
		{"l2/way-x2/2x1", L2, Interleaving{Style: StyleWayPhysical, Factor: 2}, Parity, 2},
		{"l2/index-x2/2x1", L2, Interleaving{Style: StyleIndexPhysical, Factor: 2}, Parity, 2},
		{"vgpr/tx-x4/4x1", VGPR, Interleaving{Style: StyleInterThread, Factor: 4}, Parity, 4},
		{"vgpr/rx-x2/2x1", VGPR, Interleaving{Style: StyleIntraThread, Factor: 2}, Parity, 2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run.AVF(c.st, c.scheme, c.il, c.modeBits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeFromSimulation is the cold-process baseline of the
// run-artifact store pair: acquiring an analyzable minife run by fresh
// simulation, then answering one L1 query. Compare with
// BenchmarkAnalyzeFromStore, which answers the identical query from a
// warm store; the ratio is the store's end-to-end speedup for a
// process that runs exactly one analysis (the analysis itself costs
// the same on both sides, so this pair understates the saving of every
// further query).
func BenchmarkAnalyzeFromSimulation(b *testing.B) {
	il := Interleaving{Style: StyleWayPhysical, Factor: 2}
	for i := 0; i < b.N; i++ {
		run, err := RunWorkloadContext(context.Background(), "minife")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.AVF(L1, Parity, il, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeFromStore measures the same cold-process analysis
// served from a warm run-artifact store: load the recorded artifact,
// answer the same L1 query (which decodes the sections it touches —
// lazy loading defers payload decoding to first use). The record
// happens once outside the timer — that is the store's whole point
// ("record once, analyze forever").
func BenchmarkAnalyzeFromStore(b *testing.B) {
	rs := recordedMinife(b)
	il := Interleaving{Style: StyleWayPhysical, Factor: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := rs.LoadContext(context.Background(), "minife")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loaded.AVF(L1, Parity, il, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func recordedMinife(b *testing.B) *RunStore {
	b.Helper()
	rs, err := OpenRunStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	run, err := RunWorkloadContext(context.Background(), "minife")
	if err != nil {
		b.Fatal(err)
	}
	if err := rs.SaveContext(context.Background(), "minife", run); err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkRunAcquisition isolates the phase the store replaces:
// obtaining an analyzable run. "simulate" executes the workload with
// full instrumentation; "store" reloads the recorded artifact and
// Preloads the L1 sections (graph + L1 timeline) so the store arm pays
// its decoding here, not in the first query; "store-full" Preloads
// every structure, the worst case for the store. The simulate/store
// ratio is the record-once speedup the motivation promises — reload in
// milliseconds instead of re-simulating.
func BenchmarkRunAcquisition(b *testing.B) {
	b.Run("simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunWorkloadContext(context.Background(), "minife"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		rs := recordedMinife(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run, err := rs.LoadContext(context.Background(), "minife")
			if err != nil {
				b.Fatal(err)
			}
			if err := run.Preload(L1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store-full", func(b *testing.B) {
		rs := recordedMinife(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run, err := rs.LoadContext(context.Background(), "minife")
			if err != nil {
				b.Fatal(err)
			}
			if err := run.Preload(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHammingDecode measures the real SEC-DED codec.
func BenchmarkHammingDecode(b *testing.B) {
	h := ecc.NewHamming(32)
	cw := h.Encode([]byte{0xDE, 0xAD, 0xBE, 0xEF})
	buf := make([]byte, len(cw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, cw)
		h.FlipCodewordBit(buf, i%h.CodewordBits())
		if _, r := h.Decode(buf); r != ecc.ReactCorrected {
			b.Fatal("unexpected reaction")
		}
	}
}

// BenchmarkGroupEnumeration measures fault-group enumeration over an
// L1-sized array.
func BenchmarkGroupEnumeration(b *testing.B) {
	lay, err := interleave.WayPhysical(64, 4, 512, 2)
	if err != nil {
		b.Fatal(err)
	}
	mode := bitgeom.Mx1(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		lay.Geom.ForEachGroup(mode, func(_ int, bits []bitgeom.BitPos) {
			n += len(bits)
		})
		if n == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkWorkloads measures the full instrumented simulation of every
// bundled workload (the event-tracking phase cost per benchmark).
func BenchmarkWorkloads(b *testing.B) {
	for _, name := range Workloads() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunWorkloadContext(context.Background(), name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
