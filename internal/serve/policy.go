package serve

// The protection-policy query family: /api/v1/policy evaluates one of
// the built-in policies (delayed reporting, scrubbing, temporal
// accumulation) over a workload's solved spatial fault-group outcomes.
// Policy queries ride the same two-level cache as plain AVF queries — a
// repeated query is a result-cache map lookup, and distinct policies
// over one workload share the singleflight-deduplicated run.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mbavf"
)

// PolicyQuery names one point of the policy query space: the AVF query
// shape with the scheme replaced by a policy name plus the scrub period.
type PolicyQuery struct {
	Workload  string `json:"workload"`
	Structure string `json:"structure"`
	Policy    string `json:"policy"`
	Style     string `json:"style"`
	Factor    int    `json:"factor"`
	ModeBits  int    `json:"mode_bits"`
	// ScrubInterval is the scrub period in cycles; 0 (or absent) selects
	// the built-in default, explicit non-positive values are rejected.
	ScrubInterval int64 `json:"scrub_interval"`
}

// key is the result-cache key: one entry per distinct policy point.
func (q PolicyQuery) key() string {
	return fmt.Sprintf("policy|%s|%s|%s|%s|%d|%d|%d",
		q.Workload, q.Structure, q.Policy, q.Style, q.Factor, q.ModeBits, q.ScrubInterval)
}

// validate resolves the query's enums and knobs before any expensive
// work, so every malformed policy query fails with a client error
// without loading a run or simulating.
func (q PolicyQuery) validate() (mbavf.Structure, mbavf.Interleaving, error) {
	st, err := mbavf.ParseStructure(q.Structure)
	if err != nil {
		return "", mbavf.Interleaving{}, err
	}
	il := mbavf.Interleaving{Style: mbavf.Style(q.Style), Factor: q.Factor}
	ok := false
	for _, s := range st.Styles() {
		if s == il.Style {
			ok = true
		}
	}
	if !ok {
		return "", mbavf.Interleaving{}, fmt.Errorf("%w: style %q not valid for structure %q (have %v)",
			mbavf.ErrBadOption, q.Style, q.Structure, st.Styles())
	}
	if il.Factor < 1 {
		return "", mbavf.Interleaving{}, fmt.Errorf("%w: interleaving factor %d must be >= 1", mbavf.ErrBadOption, il.Factor)
	}
	if q.ModeBits < 1 {
		return "", mbavf.Interleaving{}, fmt.Errorf("%w: mode_bits must be >= 1 (got %d)", mbavf.ErrBadOption, q.ModeBits)
	}
	ok = false
	for _, name := range mbavf.Policies() {
		if name == q.Policy {
			ok = true
		}
	}
	if !ok {
		return "", mbavf.Interleaving{}, fmt.Errorf("%w: unknown policy %q (have %v)",
			mbavf.ErrBadOption, q.Policy, mbavf.Policies())
	}
	// Run.PolicyAVF re-checks the interval; rejecting it here keeps the
	// failure ahead of any run load or simulation.
	if q.ScrubInterval <= 0 {
		return "", mbavf.Interleaving{}, fmt.Errorf("%w: scrub interval must be positive cycles (got %d)",
			mbavf.ErrBadOption, q.ScrubInterval)
	}
	return st, il, nil
}

// PolicyResponse is one answered policy query: the policy-adjusted AVF,
// the plain-scheme baseline it deviates from, and the deltas.
type PolicyResponse struct {
	PolicyQuery
	AVF      AVFValue `json:"avf"`
	Baseline AVFValue `json:"baseline"`
	DeltaDUE float64  `json:"delta_due"`
	DeltaSDC float64  `json:"delta_sdc"`
	// AccumP is the temporal multi-event occupancy probability mixed into
	// the outcome (0 for policies without a temporal model).
	AccumP    float64 `json:"accum_p"`
	Escalated bool    `json:"escalated"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// parsePolicyQuery accepts the query as URL parameters (GET) or as a
// JSON body (POST).
func parsePolicyQuery(w http.ResponseWriter, r *http.Request) (PolicyQuery, error) {
	var q PolicyQuery
	if r.Method == http.MethodPost {
		// The scrub interval decodes through a pointer so an absent field
		// (-> default) is distinguishable from an explicit zero (-> 400
		// from the typed validation, like any other non-positive value).
		var body struct {
			PolicyQuery
			ScrubInterval *int64 `json:"scrub_interval"`
		}
		if err := decodeBody(w, r, &body); err != nil {
			return q, err
		}
		q = body.PolicyQuery
		if body.ScrubInterval != nil {
			q.ScrubInterval = *body.ScrubInterval
		} else {
			q.ScrubInterval = mbavf.DefaultScrubInterval
		}
		return q, nil
	}
	v := r.URL.Query()
	q.Workload = v.Get("workload")
	q.Structure = v.Get("structure")
	q.Policy = v.Get("policy")
	q.Style = v.Get("style")
	var err error
	if q.Factor, err = atoiDefault(v.Get("factor"), 1); err != nil {
		return q, fmt.Errorf("%w: factor: %v", mbavf.ErrBadOption, err)
	}
	if q.ModeBits, err = atoiDefault(v.Get("mode"), 0); err != nil {
		return q, fmt.Errorf("%w: mode: %v", mbavf.ErrBadOption, err)
	}
	if raw := v.Get("scrub_interval"); raw != "" {
		if q.ScrubInterval, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return q, fmt.Errorf("%w: scrub_interval: %v", mbavf.ErrBadOption, err)
		}
	} else {
		q.ScrubInterval = mbavf.DefaultScrubInterval
	}
	return q, nil
}

// queryPolicy answers one policy query through the two-level cache.
func (s *Server) queryPolicy(ctx context.Context, q PolicyQuery) (PolicyResponse, error) {
	st, il, err := q.validate()
	if err != nil {
		return PolicyResponse{}, err
	}
	began := time.Now()
	v, cached, err := s.results.Get(ctx, q.key(), func() (any, error) {
		run, _, err := s.run(ctx, q.Workload, st)
		if err != nil {
			return nil, err
		}
		return run.PolicyAVF(st, q.Policy, il, q.ModeBits, q.ScrubInterval)
	})
	if err != nil {
		return PolicyResponse{}, err
	}
	out := v.(mbavf.PolicyOutcome)
	return PolicyResponse{
		PolicyQuery: q,
		AVF:         avfValue(out.AVF),
		Baseline:    avfValue(out.Baseline),
		DeltaDUE:    out.DeltaDUE,
		DeltaSDC:    out.DeltaSDC,
		AccumP:      out.AccumP,
		Escalated:   out.Escalated,
		Cached:      cached,
		ElapsedMS:   float64(time.Since(began)) / float64(time.Millisecond),
	}, nil
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	q, err := parsePolicyQuery(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp, err := s.queryPolicy(r.Context(), q)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
