package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"

	"mbavf"
	"mbavf/internal/lifetime"
	"mbavf/internal/serve"
	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

// goldenJSON holds the benchmark's seed-independent expected outputs;
// regenerate it with `go test -run TestGoldenCurrent -update` after a
// change that is meant to alter them.
//
//go:embed golden.json
var goldenJSON []byte

// goldenData is every output the benchmark checks that does not depend
// on the seed, plus the campaign tallies of the default seed.
type goldenData struct {
	// Figures maps each figure of figJobs to the sha256 of its CSV
	// rendering.
	Figures map[string]string `json:"figures"`
	// Programs holds each simulated program's counts.
	Programs map[string]programCounts `json:"programs"`
	// Cold maps each program to its answer to coldQuery.
	Cold map[string]serve.AVFValue `json:"cold_answers"`
	// Campaign holds round 0's tallies per program at defaultSeed.
	Campaign map[string]mbavf.CampaignSummary `json:"campaign_seed1"`
}

// programCounts are the simulated statistics of one program. A change
// meant only to make the simulator faster must leave them identical.
type programCounts struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	StallCycles  uint64 `json:"stall_cycles"`
	L1Hits       uint64 `json:"l1_hits"`
	L1Misses     uint64 `json:"l1_misses"`
	L2Hits       uint64 `json:"l2_hits"`
	L2Misses     uint64 `json:"l2_misses"`
	Segments     uint64 `json:"lifetime_segments"`
}

func loadGolden() (*goldenData, error) {
	var g goldenData
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// countsOf reads a finalized session's simulated statistics.
func countsOf(s *sim.Session) programCounts {
	cs := s.Hier.Stats()
	c := programCounts{
		Instructions: s.Machine.Instructions(),
		Cycles:       s.Machine.Cycles(),
		StallCycles:  s.Machine.StallCycles(),
		L1Hits:       cs.L1Hits,
		L1Misses:     cs.L1Misses,
		L2Hits:       cs.L2Hits,
		L2Misses:     cs.L2Misses,
	}
	for _, tr := range []*lifetime.Tracker{s.L1Tracker, s.L2Tracker, s.VGPRTracker} {
		c.Segments += uint64(tr.SegmentCount())
	}
	return c
}

// computeGolden derives every golden output from the code as it stands.
func computeGolden(ctx context.Context) (*goldenData, error) {
	g := &goldenData{
		Figures:  map[string]string{},
		Programs: map[string]programCounts{},
		Cold:     map[string]serve.AVFValue{},
		Campaign: map[string]mbavf.CampaignSummary{},
	}
	for _, j := range figJobs {
		d, err := figDigest(j)
		if err != nil {
			return nil, err
		}
		g.Figures[j.fig] = d
	}
	for _, p := range servePrograms {
		w, err := workloads.ByName(p)
		if err != nil {
			return nil, err
		}
		s, err := sim.ExecuteContext(ctx, w, sim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		g.Programs[p] = countsOf(s)
		run, err := mbavf.RunWorkloadContext(ctx, p)
		if err != nil {
			return nil, err
		}
		q := coldQuery(p)
		v, err := run.AVF(mbavf.Structure(q.Structure), mbavf.Scheme(q.Scheme),
			mbavf.Interleaving{Style: mbavf.Style(q.Style), Factor: q.Factor}, q.ModeBits)
		if err != nil {
			return nil, err
		}
		g.Cold[p] = avfValue(v)
	}
	c := &campaignLoad{seed: defaultSeed}
	if err := c.setup(ctx); err != nil {
		return nil, err
	}
	for _, p := range campaignPrograms {
		_, sum, err := c.campaign(ctx, p, campaignSeed(defaultSeed, 0, p), campaignWorkers, shotsPerCampaign)
		if err != nil {
			return nil, err
		}
		g.Campaign[p] = sum
	}
	return g, nil
}
