package experiments

import (
	"math"
	"testing"
)

// wilsonLower is the lower end of the Wilson score interval for k
// successes in n trials at normal quantile z.
func wilsonLower(k, n int, z float64) float64 {
	p, nf := float64(k)/float64(n), float64(n)
	z2 := z * z
	center := p + z2/(2*nf)
	spread := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	return (center - spread) / (1 + z2/nf)
}

func TestWilsonLower(t *testing.T) {
	for _, tc := range []struct {
		k, n int
		z    float64
		want float64
	}{
		{0, 100, 2.5758, 0},
		{50, 100, 1.96, 0.4038},
		{38, 1000, 2.5758, 0.0252},
	} {
		if got := wilsonLower(tc.k, tc.n, tc.z); math.Abs(got-tc.want) > 5e-4 {
			t.Errorf("wilsonLower(%d, %d, %g) = %.4f, want %.4f", tc.k, tc.n, tc.z, got, tc.want)
		}
	}
}

// TestInjectionBoundedByAnalysis is ACE analysis checked against an
// estimate independent of it: single-bit fault injection into the VGPR
// file. ACE analysis counts every bit that might reach program output,
// so it must upper-bound the injected SDC fraction; a workload fails
// when even the Wilson 99% lower bound of that fraction exceeds the
// analysis SDC AVF.
func TestInjectionBoundedByAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-shot campaigns per workload; skipped in -short")
	}
	const z99 = 2.5758 // two-sided 99% normal quantile
	o := DefaultOptions()
	o.Injections = 1000
	for _, name := range []string{"prefixsum", "dct", "matmul"} {
		v, err := validateWorkload(o, name)
		if err != nil {
			t.Fatal(err)
		}
		n := v.counts.Total()
		if n != o.Injections {
			t.Fatalf("%s: %d of %d shots classified", name, n, o.Injections)
		}
		lo := wilsonLower(v.counts.SDC, n, z99)
		t.Logf("%s: analysis SDC AVF %.4f, injected SDC %d/%d (99%% lower bound %.4f)", name, v.analysis, v.counts.SDC, n, lo)
		if lo > v.analysis {
			t.Errorf("%s: injected SDC fraction %d/%d has 99%% lower bound %.4f above the analysis SDC AVF %.4f",
				name, v.counts.SDC, n, lo, v.analysis)
		}
	}
}
