package serve

import (
	"context"
	"net/http"
	"testing"

	"mbavf"
)

const vecaddPolicy = "/api/v1/policy?workload=vecadd&structure=l1&policy=sec-ded-on-use&style=logical&factor=2&mode=4"

// TestPolicyMatchesLibrary pins the policy route's numbers to the
// library and verifies the result cache: the second identical query is
// answered from the result cache without touching the run.
func TestPolicyMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	simsBefore := obsSims.Value()

	var first, second PolicyResponse
	getJSON(t, ts.URL+vecaddPolicy, http.StatusOK, &first)
	if first.Cached {
		t.Error("first policy query reported a cache hit")
	}
	getJSON(t, ts.URL+vecaddPolicy, http.StatusOK, &second)
	if !second.Cached {
		t.Error("repeated policy query missed the result cache")
	}
	if first.AVF != second.AVF || first.Baseline != second.Baseline {
		t.Errorf("cached policy value diverged: %+v vs %+v", first, second)
	}

	r, err := mbavf.RunWorkloadContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.PolicyAVF(mbavf.L1, "sec-ded-on-use",
		mbavf.Interleaving{Style: mbavf.StyleLogical, Factor: 2}, 4, mbavf.DefaultScrubInterval)
	if err != nil {
		t.Fatal(err)
	}
	if first.AVF != avfValue(want.AVF) || first.Baseline != avfValue(want.Baseline) {
		t.Errorf("HTTP policy AVF = %+v/%+v, library = %+v/%+v",
			first.AVF, first.Baseline, avfValue(want.AVF), avfValue(want.Baseline))
	}
	if first.DeltaDUE != want.DeltaDUE || first.DeltaSDC != want.DeltaSDC {
		t.Errorf("HTTP deltas = (%v, %v), library = (%v, %v)",
			first.DeltaDUE, first.DeltaSDC, want.DeltaDUE, want.DeltaSDC)
	}

	// Distinct policies over the same workload share the run: still one
	// simulation across everything above.
	var temporal PolicyResponse
	getJSON(t, ts.URL+"/api/v1/policy?workload=vecadd&structure=l1&policy=sec-ded-scrub&style=logical&factor=2&mode=4&scrub_interval=2048",
		http.StatusOK, &temporal)
	if !temporal.Escalated || temporal.AccumP <= 0 {
		t.Errorf("scrub policy should mix an escalated outcome: %+v", temporal)
	}
	if sims := obsSims.Value() - simsBefore; sims != 1 {
		t.Errorf("policy queries over one workload ran %d simulations, want 1", sims)
	}
}

// TestPolicyPost covers the JSON-body form: an absent scrub_interval
// selects the default, an explicit zero is a client error.
func TestPolicyPost(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := map[string]any{
		"workload": "vecadd", "structure": "vgpr", "policy": "parity-on-use",
		"style": "inter-thread", "factor": 2, "mode_bits": 4,
	}
	var resp PolicyResponse
	postJSON(t, ts.URL+"/api/v1/policy", q, http.StatusOK, &resp)
	if resp.ScrubInterval != mbavf.DefaultScrubInterval {
		t.Errorf("absent scrub_interval = %d, want default %d", resp.ScrubInterval, mbavf.DefaultScrubInterval)
	}
	if resp.AVF.FalseDUE != 0 {
		t.Errorf("on-use policy kept false DUEs: %+v", resp.AVF)
	}

	q["scrub_interval"] = 0
	var apiErr apiError
	postJSON(t, ts.URL+"/api/v1/policy", q, http.StatusBadRequest, &apiErr)
	if apiErr.Error == "" {
		t.Error("explicit zero scrub_interval: empty error body")
	}
}

// TestPolicyErrors maps the policy knobs' failure modes to client codes
// before any simulation happens.
func TestPolicyErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	simsBefore := obsSims.Value()
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/api/v1/policy?workload=vecadd&structure=l1&policy=chipkill&style=logical&factor=2&mode=4", http.StatusBadRequest},
		{"/api/v1/policy?workload=vecadd&structure=l1&policy=sec-ded&style=logical&factor=2&mode=4&scrub_interval=0", http.StatusBadRequest},
		{"/api/v1/policy?workload=vecadd&structure=l1&policy=sec-ded&style=logical&factor=2&mode=4&scrub_interval=-8", http.StatusBadRequest},
		{"/api/v1/policy?workload=vecadd&structure=l1&policy=sec-ded&style=intra-thread&factor=2&mode=4", http.StatusBadRequest},
		{"/api/v1/policy?workload=vecadd&structure=l1&policy=sec-ded&style=logical&factor=0&mode=4", http.StatusBadRequest},
		{"/api/v1/policy?workload=vecadd&structure=l1&policy=sec-ded&style=logical&factor=2&mode=0", http.StatusBadRequest},
		{"/api/v1/policy?workload=nope&structure=l1&policy=sec-ded&style=logical&factor=2&mode=4", http.StatusNotFound},
	} {
		var apiErr apiError
		getJSON(t, ts.URL+tc.url, tc.code, &apiErr)
		if apiErr.Error == "" {
			t.Errorf("%s: empty error body", tc.url)
		}
	}
	// Every 4xx above was decided before simulating. The 404 workload
	// check runs inside the cached query path but also pre-simulation.
	if sims := obsSims.Value() - simsBefore; sims != 0 {
		t.Errorf("error-path queries ran %d simulations, want 0", sims)
	}

	// The catalog advertises the policy vocabulary.
	var catalog struct {
		Policies []string `json:"policies"`
	}
	getJSON(t, ts.URL+"/api/v1/catalog", http.StatusOK, &catalog)
	if len(catalog.Policies) < 4 {
		t.Errorf("catalog policies = %v, want >= 4", catalog.Policies)
	}
}
