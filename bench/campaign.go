package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"mbavf"
	"mbavf/internal/obs"
)

// campaignPrograms are the programs the campaign workload injects into.
var campaignPrograms = []string{"minife", "matmul", "kmeans"}

const (
	// shotsPerCampaign is the size of one RunCampaign call, the
	// workload's operation; a round runs one per program.
	shotsPerCampaign = 100
	// campaignWorkers is the campaign's worker pool, one per CPU the
	// benchmark allows itself.
	campaignWorkers = 2
	// replayShots of the round's first campaign are replayed serially as
	// a determinism check.
	replayShots = 100
	// defaultSeed is the seed whose campaign tallies golden.json holds.
	defaultSeed = 1
)

// campaignSeed derives the shot-sampling seed of one campaign from the
// run seed, the round and the program, so a program's campaign in a
// round is the same whatever order the round runs them in.
func campaignSeed(seed int64, round int, program string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s", seed, round, program)
	return int64(h.Sum64() >> 1)
}

// campaignLoad runs fault-injection campaigns through
// InjectionCampaign.RunCampaign: uninstrumented GPU and cache execution
// (no trackers, no graph) on the worker pool, nothing in core, store or
// serve. The golden runs happen in setup.
type campaignLoad struct {
	seed    int64
	gold    *goldenData
	ics     map[string]*mbavf.InjectionCampaign
	first   *firstCampaign
	tallies map[string]mbavf.CampaignSummary // round 0, by program
}

// firstCampaign is the first campaign a run measured, kept for replay.
type firstCampaign struct {
	program string
	seed    int64
	results []mbavf.InjectionResult
}

func (c *campaignLoad) setup(ctx context.Context) error {
	obs.StopTrace()
	obs.Disable()
	obs.Reset()
	c.ics = map[string]*mbavf.InjectionCampaign{}
	for _, p := range campaignPrograms {
		ic, err := mbavf.NewInjectionCampaignContext(ctx, p)
		if err != nil {
			return err
		}
		c.ics[p] = ic
	}
	c.first, c.tallies = nil, map[string]mbavf.CampaignSummary{}
	return nil
}

// campaign runs one measured campaign.
func (c *campaignLoad) campaign(ctx context.Context, program string, seed int64, workers, shots int) ([]mbavf.InjectionResult, mbavf.CampaignSummary, error) {
	return c.ics[program].RunCampaign(ctx, mbavf.CampaignRunConfig{Injections: shots, Seed: seed, Workers: workers})
}

func (c *campaignLoad) run(ctx context.Context, lim limit, t *tally) error {
	rng := rand.New(rand.NewSource(c.seed))
	return lim.each(func(round int) error {
		for _, i := range rng.Perm(len(campaignPrograms)) {
			p := campaignPrograms[i]
			seed := campaignSeed(c.seed, round, p)
			sp := benchSpan("campaign")
			began := time.Now()
			results, sum, err := c.campaign(ctx, p, seed, campaignWorkers, shotsPerCampaign)
			ms := msSince(began)
			sp.End()
			if err != nil {
				t.fail(shotsPerCampaign, fmt.Errorf("campaign %s: %w", p, err))
				continue
			}
			if sum.Errors > 0 {
				t.fail(sum.Errors, fmt.Errorf("campaign %s: %d infrastructure errors", p, sum.Errors))
			}
			t.op("campaign:"+p, ms, shotsPerCampaign-sum.Errors)
			if c.first == nil {
				c.first = &firstCampaign{program: p, seed: seed, results: results}
			}
			if _, ok := c.tallies[p]; !ok && round == 0 {
				c.tallies[p] = sum
			}
		}
		return nil
	})
}

// check replays the first shots of the first campaign on one worker
// and requires identical outcomes; at the default seed it also compares
// the first round's tallies with golden.json.
func (c *campaignLoad) check(ctx context.Context, t *tally) error {
	if c.first == nil {
		return nil
	}
	n := min(replayShots, len(c.first.results))
	replay, _, err := c.campaign(ctx, c.first.program, c.first.seed, 1, n)
	if err != nil {
		return fmt.Errorf("replaying %s: %w", c.first.program, err)
	}
	for i := range n {
		if i >= len(replay) || replay[i] != c.first.results[i] {
			t.mismatch("campaign %s seed %d: shot %d differs between %d workers and 1", c.first.program, c.first.seed, i, campaignWorkers)
			break
		}
	}
	if c.seed == defaultSeed {
		for p, sum := range c.tallies {
			if want := c.gold.Campaign[p]; sum != want {
				t.mismatch("campaign %s round 0: tallies %+v, golden %+v", p, sum, want)
			}
		}
	}
	return nil
}

func (c *campaignLoad) details(t *tally) []detail {
	var out []detail
	for _, p := range campaignPrograms {
		s := summarize(t.samplesOf("campaign:" + p))
		out = append(out, detail{Name: "campaign_" + p + "_ms", Value: s.P50, Unit: "ms", summary: s})
	}
	return out
}

func (c *campaignLoad) close() { c.ics = nil }
