package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mbavf"
	"mbavf/internal/faultrate"
	"mbavf/internal/obs"
)

// newTestServer builds a small Server plus an httptest front end. Tests
// use "vecadd" (the fastest bundled workload) so even the -race pass
// stays quick.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

const vecaddAVF = "/api/v1/avf?workload=vecadd&structure=l1&scheme=sec-ded&style=logical&factor=2&mode=2"

// TestSingleflight is the tentpole's core guarantee: N concurrent
// identical queries on a cold server trigger exactly one simulation.
func TestSingleflight(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSims: 2})
	simsBefore := obsSims.Value()

	const n = 32
	var wg sync.WaitGroup
	responses := make([]AVFResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + vecaddAVF)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if sims := obsSims.Value() - simsBefore; sims != 1 {
		t.Errorf("32 concurrent identical queries ran %d simulations, want 1", sims)
	}
	for i := 1; i < n; i++ {
		if responses[i].AVF != responses[0].AVF {
			t.Errorf("response %d diverged: %+v vs %+v", i, responses[i].AVF, responses[0].AVF)
		}
	}
}

// TestResultCache verifies the second level: a repeated query is a pure
// cache hit (no new simulation, Cached=true), and a different query on
// the same workload reuses the cached run.
func TestResultCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	simsBefore := obsSims.Value()

	var first, second AVFResponse
	getJSON(t, ts.URL+vecaddAVF, http.StatusOK, &first)
	if first.Cached {
		t.Error("first query reported a cache hit")
	}
	getJSON(t, ts.URL+vecaddAVF, http.StatusOK, &second)
	if !second.Cached {
		t.Error("repeated query missed the result cache")
	}
	if first.AVF != second.AVF {
		t.Errorf("cached value diverged: %+v vs %+v", first.AVF, second.AVF)
	}

	// A new query point on the same workload: result-cache miss, but the
	// run is reused, so still no new simulation.
	var other AVFResponse
	getJSON(t, ts.URL+strings.Replace(vecaddAVF, "mode=2", "mode=4", 1), http.StatusOK, &other)
	if other.Cached {
		t.Error("distinct query point reported a result-cache hit")
	}
	if sims := obsSims.Value() - simsBefore; sims != 1 {
		t.Errorf("three queries over one workload ran %d simulations, want 1", sims)
	}
}

// TestAVFMatchesLibrary pins the route's numbers to the library: the
// HTTP answer must be bit-identical to calling Run.AVF directly.
func TestAVFMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got AVFResponse
	getJSON(t, ts.URL+vecaddAVF, http.StatusOK, &got)

	r, err := mbavf.RunWorkloadContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.AVF(mbavf.L1, mbavf.SECDED, mbavf.Interleaving{Style: mbavf.StyleLogical, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.AVF != avfValue(want) {
		t.Errorf("HTTP AVF = %+v, library = %+v", got.AVF, avfValue(want))
	}
}

func TestRoutesAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var health map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	var catalog struct {
		Workloads  []string `json:"workloads"`
		Structures []struct {
			Name   string   `json:"name"`
			Styles []string `json:"styles"`
		} `json:"structures"`
		Schemes     []string `json:"schemes"`
		Experiments []string `json:"experiments"`
	}
	getJSON(t, ts.URL+"/api/v1/catalog", http.StatusOK, &catalog)
	if len(catalog.Workloads) < 10 || len(catalog.Structures) != 3 || len(catalog.Schemes) != 4 || len(catalog.Experiments) < 10 {
		t.Errorf("catalog shape: %d workloads, %d structures, %d schemes, %d experiments",
			len(catalog.Workloads), len(catalog.Structures), len(catalog.Schemes), len(catalog.Experiments))
	}

	var wls struct {
		Workloads []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		} `json:"workloads"`
	}
	getJSON(t, ts.URL+"/api/v1/workloads", http.StatusOK, &wls)
	if len(wls.Workloads) == 0 || wls.Workloads[0].Description == "" {
		t.Errorf("workloads route: %+v", wls)
	}

	// Client errors map to their codes before any simulation happens.
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/api/v1/avf?workload=vecadd&structure=l1&scheme=hamming&style=logical&factor=2&mode=2", http.StatusBadRequest},
		{"/api/v1/avf?workload=vecadd&structure=tlb&scheme=parity&style=logical&factor=2&mode=2", http.StatusBadRequest},
		{"/api/v1/avf?workload=vecadd&structure=l1&scheme=parity&style=intra-thread&factor=2&mode=2", http.StatusBadRequest},
		{"/api/v1/avf?workload=vecadd&structure=l1&scheme=parity&style=logical&factor=0&mode=2", http.StatusBadRequest},
		{"/api/v1/avf?workload=vecadd&structure=l1&scheme=parity&style=logical&factor=2&mode=0", http.StatusBadRequest},
		{"/api/v1/avf?workload=nope&structure=l1&scheme=parity&style=logical&factor=2&mode=2", http.StatusNotFound},
		{"/api/v1/jobs/job-999999", http.StatusNotFound},
	} {
		var apiErr apiError
		getJSON(t, ts.URL+tc.url, tc.code, &apiErr)
		if apiErr.Error == "" {
			t.Errorf("%s: empty error body", tc.url)
		}
	}

	// MTTF is the analytical Figure 2 model: spatial multi-bit MTTF must
	// sit far below temporal at realistic rates, and bad params map to 400.
	var m MTTFResponse
	getJSON(t, ts.URL+"/api/v1/mttf?raw_fit_per_bit=1e-4&smbf_fraction=0.05", http.StatusOK, &m)
	if m.SpatialYears <= 0 || m.SpatialOverTmp <= 1 {
		t.Errorf("MTTF shape: %+v", m)
	}
	getJSON(t, ts.URL+"/api/v1/mttf?raw_fit_per_bit=-1", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/api/v1/mttf?bits=oops", http.StatusBadRequest, nil)

	// Every POST route reads at most maxBodyBytes of JSON: a larger body
	// is 413, a body of the wrong shape 400, both before any simulation.
	oversized := map[string]string{"pad": strings.Repeat("a", maxBodyBytes)}
	for _, route := range []string{"/api/v1/avf", "/api/v1/avf/batch", "/api/v1/ser", "/api/v1/policy", "/api/v1/jobs/injection", "/api/v1/jobs/experiment"} {
		var apiErr apiError
		postJSON(t, ts.URL+route, oversized, http.StatusRequestEntityTooLarge, &apiErr)
		if apiErr.Error == "" {
			t.Errorf("POST %s oversized: empty error body", route)
		}
		postJSON(t, ts.URL+route, []int{1}, http.StatusBadRequest, nil)
	}

	// SER over HTTP matches the library.
	var ser SERResponse
	getJSON(t, ts.URL+"/api/v1/ser?workload=vecadd&structure=vgpr&scheme=parity&style=intra-thread&factor=2", http.StatusOK, &ser)
	r, err := mbavf.RunWorkloadContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.SER(mbavf.VGPR, mbavf.Parity, mbavf.Interleaving{Style: mbavf.StyleIntraThread, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ser.SDCFit != want.SDC || ser.DUEFit != want.DUE {
		t.Errorf("HTTP SER = (%v, %v), library = %+v", ser.SDCFit, ser.DUEFit, want)
	}
}

// TestGeometryMisfitIsClientError pins the query errors only the
// structure's geometry decides — an interleaving factor that does not
// divide it, and a fault mode wider than its wordlines — as 400 on every
// query route, not 500. Both are found after the run is acquired.
func TestGeometryMisfitIsClientError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{
		"/api/v1/avf?workload=vecadd&structure=l1&scheme=parity&style=way-physical&factor=8&mode=2",
		"/api/v1/avf?workload=vecadd&structure=l1&scheme=parity&style=way-physical&factor=2&mode=5000",
		"/api/v1/ser?workload=vecadd&structure=l1&scheme=parity&style=way-physical&factor=8",
		"/api/v1/policy?workload=vecadd&structure=l1&policy=parity&style=way-physical&factor=8&mode=2",
		"/api/v1/policy?workload=vecadd&structure=l1&policy=parity&style=way-physical&factor=2&mode=5000",
	} {
		var apiErr apiError
		getJSON(t, ts.URL+url, http.StatusBadRequest, &apiErr)
		if apiErr.Error == "" {
			t.Errorf("%s: empty error body", url)
		}
	}
}

// TestSERIgnoresMode pins the SER route's cache key: the roll-up covers
// every Table III mode, so requests that differ only in mode (absent,
// in range, negative) cost one roll-up, and the rest are result-cache
// hits that echo the mode cleared.
func TestSERIgnoresMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const base = "/api/v1/ser?workload=vecadd&structure=vgpr&scheme=sec-ded&style=inter-thread&factor=2"
	analyses := obs.NewCounter("core.analyses")
	before := analyses.Value()
	var first SERResponse
	getJSON(t, ts.URL+base, http.StatusOK, &first)
	if first.Cached {
		t.Fatal("first SER query reported a cache hit")
	}
	for _, mode := range []string{"3", "-7", "8", "0"} {
		var got SERResponse
		getJSON(t, ts.URL+base+"&mode="+mode, http.StatusOK, &got)
		if !got.Cached {
			t.Errorf("mode=%s: SER recomputed instead of hitting the cache", mode)
		}
		if got.SDCFit != first.SDCFit || got.DUEFit != first.DUEFit {
			t.Errorf("mode=%s: SER = (%v, %v), want (%v, %v)", mode, got.SDCFit, got.DUEFit, first.SDCFit, first.DUEFit)
		}
		if got.ModeBits != 0 {
			t.Errorf("mode=%s: echoed mode %d, want it cleared", mode, got.ModeBits)
		}
	}
	// One roll-up is one analysis per Table III mode.
	if n, want := analyses.Value()-before, uint64(len(faultrate.TableIII())); n != want {
		t.Errorf("SER queries differing only in mode ran %d analyses, want one roll-up (%d)", n, want)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := AVFQuery{Workload: "vecadd", Structure: "l1", Scheme: "parity", Style: "logical", Factor: 2, ModeBits: 2}
	bad := q
	bad.Scheme = "hamming"
	var out struct {
		Results []BatchItem `json:"results"`
	}
	postJSON(t, ts.URL+"/api/v1/avf/batch", map[string]any{"queries": []AVFQuery{q, q, bad}}, http.StatusOK, &out)
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	if out.Results[0].Result == nil || out.Results[1].Result == nil {
		t.Fatal("valid batch items failed")
	}
	if out.Results[0].Result.AVF != out.Results[1].Result.AVF {
		t.Error("identical batch items diverged")
	}
	if out.Results[2].Error == "" {
		t.Error("invalid batch item did not report its error")
	}
	postJSON(t, ts.URL+"/api/v1/avf/batch", map[string]any{"queries": []AVFQuery{}}, http.StatusBadRequest, nil)
	// One query over the batch cap is refused whole.
	over := make([]AVFQuery, maxBatch+1)
	for i := range over {
		over[i] = q
	}
	postJSON(t, ts.URL+"/api/v1/avf/batch", map[string]any{"queries": over}, http.StatusBadRequest, nil)
}

func TestJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var st JobStatus
	postJSON(t, ts.URL+"/api/v1/jobs/injection",
		InjectionJobRequest{Workload: "vecadd", Injections: 4, Seed: 7, Workers: 2},
		http.StatusAccepted, &st)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %q", st.State)
	}

	j, ok := s.jobs.get(st.ID)
	if !ok {
		t.Fatalf("job %q not registered", st.ID)
	}
	select {
	case <-j.finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("job did not finish")
	}

	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, http.StatusOK, &st)
	if st.State != StateDone {
		t.Fatalf("job state = %q (%s), want done", st.State, st.Error)
	}
	if st.Completed != 4 || st.Total != 4 {
		t.Errorf("progress = %d/%d, want 4/4", st.Completed, st.Total)
	}
	res, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var sum InjectionJobResult
	if err := json.Unmarshal(res, &sum); err != nil {
		t.Fatal(err)
	}
	if got := sum.Masked + sum.SDC + sum.DUE + sum.Hang + sum.Crash; got != 4 {
		t.Errorf("classified %d shots, want 4 (%+v)", got, sum)
	}

	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/api/v1/jobs", http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}

	postJSON(t, ts.URL+"/api/v1/jobs/injection",
		InjectionJobRequest{Workload: "nope", Injections: 4}, http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/api/v1/jobs/injection",
		InjectionJobRequest{Workload: "vecadd", Injections: 0}, http.StatusBadRequest, nil)
}

// TestJobCancelQueued pins the deterministic cancellation path: with one
// job slot, a second submission stays queued and can be cancelled before
// it ever runs.
func TestJobCancelQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 1})

	var running, queued JobStatus
	postJSON(t, ts.URL+"/api/v1/jobs/injection",
		InjectionJobRequest{Workload: "vecadd", Injections: 64, Workers: 2},
		http.StatusAccepted, &running)
	postJSON(t, ts.URL+"/api/v1/jobs/injection",
		InjectionJobRequest{Workload: "vecadd", Injections: 64, Workers: 2},
		http.StatusAccepted, &queued)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Errorf("cancelled queued job state = %q", st.State)
	}

	// Cancel the running one too; its context unwinds the campaign.
	if found, _ := s.jobs.cancelJob(running.ID); !found {
		t.Fatal("running job vanished")
	}
	j, _ := s.jobs.get(running.ID)
	select {
	case <-j.finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("cancelled job did not unwind")
	}
	getJSON(t, ts.URL+"/api/v1/jobs/"+running.ID, http.StatusOK, &st)
	if st.State != StateCancelled {
		t.Errorf("cancelled running job state = %q", st.State)
	}
}

// TestGracefulDrain pins the shutdown contract: drain refuses new work,
// waits for in-flight requests, shuts queued jobs, and leaves the server
// answering 503.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm one request through so there is real completed work to drain
	// around.
	resp, err := http.Get(ts.URL + vecaddAVF)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !s.Draining() {
		t.Error("Draining() false after Drain")
	}

	for _, url := range []string{ts.URL + "/healthz", ts.URL + vecaddAVF, ts.URL + "/api/v1/catalog"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s after drain = %d, want 503", url, resp.StatusCode)
		}
	}

	// Cached runs stay readable after drain (the middleware refuses the
	// request long before this), but uncached work can no longer simulate:
	// the lifecycle context is gone.
	if _, cached, err := s.run(context.Background(), "vecadd"); err != nil || !cached {
		t.Errorf("cached run after drain: cached=%v err=%v", cached, err)
	}
	if _, _, err := s.run(context.Background(), "dct"); err == nil {
		t.Error("uncached run after drain should fail")
	}
}

// TestDrainDeadline verifies the hard-cancel path: a drain whose context
// expires cancels running jobs rather than waiting forever.
func TestDrainDeadline(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st JobStatus
	postJSON(t, ts.URL+"/api/v1/jobs/injection",
		InjectionJobRequest{Workload: "vecadd", Injections: 5000, Workers: 2},
		http.StatusAccepted, &st)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, http.StatusServiceUnavailable, nil)
	j, _ := s.jobs.get(st.ID)
	st = j.status()
	if st.State != StateCancelled && st.State != StateDone {
		t.Errorf("job state after deadline drain = %q", st.State)
	}
}

func TestCacheSingleflightUnit(t *testing.T) {
	c := NewCache[int]("serve.cache.test", 2, 2)
	var builds int
	var mu sync.Mutex
	build := func() (int, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		return 42, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Get(context.Background(), "k", build)
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("16 concurrent Gets ran %d builds, want 1", builds)
	}

	// Eviction: per-shard capacity 2, so stuffing one shard past its cap
	// drops the oldest entry.
	errBoom := errors.New("boom")
	if _, _, err := c.Get(context.Background(), "bad", func() (int, error) { return 0, errBoom }); !errors.Is(err, errBoom) {
		t.Errorf("build error not propagated: %v", err)
	}
	if _, cached, _ := c.Get(context.Background(), "bad", func() (int, error) { return 7, nil }); cached {
		t.Error("build error was cached")
	}
}
