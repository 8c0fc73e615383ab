package inject

import (
	"context"
	"errors"
	"testing"

	"mbavf/internal/sim"
	"mbavf/internal/workloads"
)

func vecaddCampaign(t *testing.T) *Campaign {
	t.Helper()
	w, err := workloads.ByName("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(w, sim.InjectionConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGoldenRunMatchesWorkloadGolden(t *testing.T) {
	c := vecaddCampaign(t)
	want, err := workloads.Golden("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if string(c.Golden()) != string(want) {
		t.Fatal("campaign golden differs from host golden")
	}
	if c.Cycles() == 0 {
		t.Fatal("golden run has zero cycles")
	}
}

func TestSingleBitCampaignOutcomes(t *testing.T) {
	c := vecaddCampaign(t)
	rep, err := c.Run(context.Background(), RunConfig{N: 40, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results()
	if len(results) != 40 {
		t.Fatalf("got %d results", len(results))
	}
	counts := Count(results)
	if counts.Total() != 40 {
		t.Errorf("counts don't sum: %+v", counts)
	}
	// vecadd consumes registers immediately and writes output from them:
	// both masked and SDC outcomes must occur in a 40-shot campaign.
	if counts.Masked == 0 {
		t.Error("expected some masked injections")
	}
	if counts.SDC == 0 {
		t.Error("expected some SDC injections")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	c := vecaddCampaign(t)
	a, err := c.Run(context.Background(), RunConfig{N: 10, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run(context.Background(), RunConfig{N: 10, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Shots {
		if a.Shots[i] != b.Shots[i] {
			t.Fatalf("run %d differs: %+v vs %+v", i, a.Shots[i], b.Shots[i])
		}
	}
}

func TestSDCBitsFilter(t *testing.T) {
	rs := []Result{
		{Outcome: OutcomeMasked},
		{Outcome: OutcomeSDC},
		{Outcome: OutcomeDUE},
		{Outcome: OutcomeSDC},
	}
	if got := len(SDCBits(rs)); got != 2 {
		t.Errorf("SDCBits = %d, want 2", got)
	}
}

func TestGroupMask(t *testing.T) {
	cases := []struct {
		bit, m int
		want   uint32
	}{
		{0, 2, 0b11},
		{5, 3, 0b111 << 5},
		{31, 2, 0b11 << 30},
		{30, 4, 0b1111 << 28},
		// Anchor clamping near bit 31: whenever bit+m > 32 the anchor
		// shifts down so the group stays inside the register but still
		// contains the target bit.
		{31, 3, 0b111 << 29},
		{31, 4, 0b1111 << 28},
		{29, 4, 0b1111 << 28},
		{30, 2, 0b11 << 30},
		{31, 32, 0xFFFFFFFF},
		{0, 32, 0xFFFFFFFF},
		{16, 17, 0x1FFFF << 15},
	}
	for _, c := range cases {
		got := groupMask(c.bit, c.m)
		if got != c.want {
			t.Errorf("groupMask(%d,%d) = %#x, want %#x", c.bit, c.m, got, c.want)
		}
		if got&(1<<uint(c.bit)) == 0 {
			t.Errorf("groupMask(%d,%d) = %#x does not contain the target bit", c.bit, c.m, got)
		}
	}
	// Exhaustive invariants over the whole domain: m contiguous bits,
	// inside the register, containing the target bit.
	for bit := 0; bit < 32; bit++ {
		for m := 2; m <= 32; m++ {
			mask := groupMask(bit, m)
			if n := popcount(mask); n != m {
				t.Fatalf("groupMask(%d,%d) has %d bits set, want %d", bit, m, n, m)
			}
			if mask&(1<<uint(bit)) == 0 {
				t.Fatalf("groupMask(%d,%d) misses the target bit", bit, m)
			}
		}
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestInterferenceStudySmall(t *testing.T) {
	c := vecaddCampaign(t)
	singles, err := c.Run(context.Background(), RunConfig{N: 30, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sdc := SDCBits(singles.Results())
	if len(sdc) == 0 {
		t.Skip("no SDC bits found in small campaign")
	}
	study, err := c.InterferenceStudy(context.Background(), sdc[:min(len(sdc), 4)], []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(study) != 2 {
		t.Fatalf("study rows = %d", len(study))
	}
	for _, row := range study {
		if row.Groups == 0 {
			t.Errorf("mode %d: no groups injected", row.ModeSize)
		}
		if row.Interference > row.Groups {
			t.Errorf("mode %d: interference exceeds groups", row.ModeSize)
		}
	}
}

func TestInterferenceRejectsBadModeSize(t *testing.T) {
	c := vecaddCampaign(t)
	if _, err := c.InterferenceStudy(context.Background(), nil, []int{1}); err == nil {
		t.Error("mode size 1 should be rejected")
	}
	if _, err := c.InterferenceStudy(context.Background(), nil, []int{33}); err == nil {
		t.Error("mode size 33 should be rejected")
	}
}

// TestInterferenceStudyHonorsContext: a cancelled study stops before
// its next group injection and returns the rows completed so far, none
// here, with the context's error.
func TestInterferenceStudyHonorsContext(t *testing.T) {
	c := vecaddCampaign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sdc := []Result{{Target: Target{Reg: 1, Bit: 3}, Outcome: OutcomeSDC}}
	rows, err := c.InterferenceStudy(ctx, sdc, []int{2, 3, 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rows) != 0 {
		t.Fatalf("cancelled study returned %d rows, want none", len(rows))
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomeMasked: "masked",
		OutcomeSDC:    "sdc",
		OutcomeDUE:    "due",
		OutcomeHang:   "hang",
		OutcomeCrash:  "crash",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), s)
		}
		parsed, err := ParseOutcome(s)
		if err != nil || parsed != o {
			t.Errorf("ParseOutcome(%q) = %v, %v", s, parsed, err)
		}
	}
	if _, err := ParseOutcome("meltdown"); err == nil {
		t.Error("ParseOutcome should reject unknown names")
	}
}
