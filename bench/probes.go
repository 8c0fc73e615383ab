package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mbavf"
	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/store"
	"mbavf/internal/store/disk"
	"mbavf/internal/store/httpstore"
	"mbavf/internal/workloads"
)

// probeReps is how often each probe repeats; probes report medians.
const probeReps = 3

// runProbes times direct calls into each layer's public functions,
// outside any workload, and returns the per-layer values they give. It
// checks what the calls return against the golden data into t.
func runProbes(ctx context.Context, dir string, gold *goldenData, t *tally) (map[string]float64, error) {
	out := map[string]float64{}
	ms, err := probeSim(ctx, gold, t, out)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := probeFunctional(ctx, out); err != nil {
		return nil, fmt.Errorf("functional sim: %w", err)
	}
	if err := probeStore(ctx, filepath.Join(dir, "probe-store"), ms, gold, t, out); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := probeCore(ctx, out); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var golden []float64
	for range probeReps {
		began := time.Now()
		for _, p := range campaignPrograms {
			if _, err := mbavf.NewInjectionCampaignContext(ctx, p); err != nil {
				return nil, err
			}
		}
		golden = append(golden, msSince(began))
	}
	out["inject.golden_ms"] = median(golden)
	return out, nil
}

func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// sumMedians adds up the per-key medians of repeated timings.
func sumMedians(samples map[string][]float64) float64 {
	total := 0.0
	for _, s := range samples {
		total += median(s)
	}
	return total
}

// probeSim executes and finalizes every serving program on a fully
// instrumented session, checks the simulated counts against golden and
// returns the measurements for the store probe.
func probeSim(ctx context.Context, gold *goldenData, t *tally, out map[string]float64) (map[string]*sim.Measurements, error) {
	exec, fin := map[string][]float64{}, map[string][]float64{}
	var allocs []float64
	var total programCounts
	ms := map[string]*sim.Measurements{}
	for rep := range probeReps {
		before := totalAllocMB()
		for _, p := range servePrograms {
			w, err := workloads.ByName(p)
			if err != nil {
				return nil, err
			}
			s, err := sim.NewSessionContext(ctx, sim.DefaultConfig())
			if err != nil {
				return nil, err
			}
			s.Label = p
			began := time.Now()
			if err := w.Run(s); err != nil {
				return nil, err
			}
			exec[p] = append(exec[p], msSince(began))
			began = time.Now()
			if err := s.Finalize(); err != nil {
				return nil, err
			}
			fin[p] = append(fin[p], msSince(began))
			if rep == 0 {
				c := countsOf(s)
				if c != gold.Programs[p] {
					t.mismatch("%s: simulated counts %+v, golden %+v", p, c, gold.Programs[p])
				}
				total.Instructions += c.Instructions
				total.Cycles += c.Cycles
				total.StallCycles += c.StallCycles
				total.L1Hits += c.L1Hits
				total.L1Misses += c.L1Misses
				total.L2Hits += c.L2Hits
				total.L2Misses += c.L2Misses
				total.Segments += c.Segments
				ms[p] = s.Measurements()
			}
		}
		allocs = append(allocs, totalAllocMB()-before)
	}
	out["sim.execute_ms"] = sumMedians(exec)
	out["sim.finalize_ms"] = sumMedians(fin)
	out["sim.ns_per_instr"] = out["sim.execute_ms"] * 1e6 / float64(total.Instructions)
	out["sim.alloc_mb"] = median(allocs)
	out["gpu.instructions"] = float64(total.Instructions)
	out["gpu.cycles"] = float64(total.Cycles)
	out["gpu.stall_cycles"] = float64(total.StallCycles)
	out["cache.l1.hits"] = float64(total.L1Hits)
	out["cache.l1.misses"] = float64(total.L1Misses)
	out["cache.l2.hits"] = float64(total.L2Hits)
	out["cache.l2.misses"] = float64(total.L2Misses)
	out["lifetime.segments"] = float64(total.Segments)
	return ms, nil
}

// probeFunctional executes the campaign programs the way injection runs
// do: sim.InjectionConfig, no trackers, no graph.
func probeFunctional(ctx context.Context, out map[string]float64) error {
	exec := map[string][]float64{}
	for range probeReps {
		for _, p := range campaignPrograms {
			w, err := workloads.ByName(p)
			if err != nil {
				return err
			}
			s, err := sim.NewSessionContext(ctx, sim.InjectionConfig())
			if err != nil {
				return err
			}
			began := time.Now()
			if err := w.Run(s); err != nil {
				return err
			}
			exec[p] = append(exec[p], msSince(began))
		}
	}
	out["sim.execute_functional_ms"] = sumMedians(exec)
	return nil
}

// probeStore encodes, writes, parses and decodes every program's
// artifact, then answers the cold query from a fresh server reading
// that store over the HTTP artifact protocol, counting what crosses
// the wire.
func probeStore(ctx context.Context, dir string, ms map[string]*sim.Measurements, gold *goldenData, t *tally, out map[string]float64) error {
	b, err := disk.New(dir)
	if err != nil {
		return err
	}
	names := []string{"encode", "put", "parse", "graph", "l1", "l2", "vgpr"}
	times := map[string]map[string][]float64{}
	for _, n := range names {
		times[n] = map[string][]float64{}
	}
	timed := func(name, program string, f func() error) error {
		began := time.Now()
		err := f()
		times[name][program] = append(times[name][program], msSince(began))
		return err
	}
	// The decode histogram records only while the layer is on.
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	bytes := 0
	for rep := range probeReps {
		for _, p := range servePrograms {
			var data []byte
			if err := timed("encode", p, func() (err error) { data, err = store.EncodedBytes(ms[p]); return }); err != nil {
				return err
			}
			if rep == 0 {
				bytes += len(data)
			}
			key := store.KeyFor(p, sim.DefaultConfig())
			if err := timed("put", p, func() error { return b.Put(ctx, key, data) }); err != nil {
				return err
			}
			if err := timed("parse", p, func() error { _, err := store.Parse(data); return err }); err != nil {
				return err
			}
			a, err := store.Parse(data)
			if err != nil {
				return err
			}
			for _, sec := range []struct {
				name string
				f    func() error
			}{
				{"graph", func() error { _, err := a.Graph(); return err }},
				{"l1", func() error { _, err := a.L1(); return err }},
				{"l2", func() error { _, err := a.L2(); return err }},
				{"vgpr", func() error { _, err := a.VGPR(); return err }},
			} {
				if err := timed(sec.name, p, sec.f); err != nil {
					return err
				}
			}
		}
	}
	for _, h := range obs.Histograms() {
		if h.Name == "store.decode_ns" {
			out["store.decode_p50_ms"] = float64(h.Quantile(0.5)) / 1e6
		}
	}
	out["store.encode_ms"] = sumMedians(times["encode"])
	out["store.put_ms"] = sumMedians(times["put"])
	out["store.parse_ms"] = sumMedians(times["parse"])
	for _, sec := range []string{"graph", "l1", "l2", "vgpr"} {
		out["store.decode_ms."+sec] = sumMedians(times[sec])
	}
	out["store.artifact_mb"] = float64(bytes) / (1 << 20)

	mux := http.NewServeMux()
	httpstore.NewServer(b).Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ct := &countingTransport{base: &http.Transport{}}
	defer ct.base.CloseIdleConnections()
	for _, p := range servePrograms {
		rs := mbavf.NewRunStore(httpstore.New(ts.URL, httpstore.WithHTTPClient(&http.Client{Transport: ct})))
		resp, err := firstAnswer(ctx, rs, p)
		if err != nil {
			return err
		}
		if resp.AVF != gold.Cold[p] {
			t.mismatch("remote probe %s: answered %+v, golden %+v", p, resp.AVF, gold.Cold[p])
		}
	}
	n := float64(len(servePrograms))
	out["store.remote_kb_per_query"] = float64(ct.bytes.Load()) / 1024 / n
	out["store.range_reads_per_query"] = float64(ct.ranges.Load()) / n
	return nil
}

// countingTransport counts the response body bytes and the ranged
// requests an HTTP client makes.
type countingTransport struct {
	base   *http.Transport
	bytes  atomic.Int64
	ranges atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get("Range") != "" {
		c.ranges.Add(1)
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// probeCore times Run.AVF and Run.SER on a memoized minife run, and the
// bytes allocated per analysis across all of those calls.
func probeCore(ctx context.Context, out map[string]float64) error {
	run, err := mbavf.RunWorkloadContext(ctx, "minife")
	if err != nil {
		return err
	}
	cases := []struct {
		name string
		st   mbavf.Structure
		il   mbavf.Interleaving
		mode int
	}{
		{"core.avf_ms.l1-way2-2x1", mbavf.L1, mbavf.Interleaving{Style: mbavf.StyleWayPhysical, Factor: 2}, 2},
		{"core.avf_ms.l2-way2-2x1", mbavf.L2, mbavf.Interleaving{Style: mbavf.StyleWayPhysical, Factor: 2}, 2},
		{"core.avf_ms.vgpr-tx4-4x1", mbavf.VGPR, mbavf.Interleaving{Style: mbavf.StyleInterThread, Factor: 4}, 4},
	}
	const avfReps, serModes = 5, 8
	analyses := 0
	before := totalAllocMB()
	for _, c := range cases {
		var s []float64
		for range avfReps {
			began := time.Now()
			if _, err := run.AVF(c.st, mbavf.Parity, c.il, c.mode); err != nil {
				return err
			}
			s = append(s, msSince(began))
			analyses++
		}
		out[c.name] = median(s)
	}
	var s []float64
	for range probeReps {
		began := time.Now()
		if _, err := run.SER(mbavf.VGPR, mbavf.Parity, mbavf.Interleaving{Style: mbavf.StyleInterThread, Factor: 4}); err != nil {
			return err
		}
		s = append(s, msSince(began))
		analyses += serModes
	}
	out["core.ser_ms.vgpr-tx4"] = median(s)
	out["core.alloc_mb_per_analysis"] = (totalAllocMB() - before) / float64(analyses)
	return nil
}
