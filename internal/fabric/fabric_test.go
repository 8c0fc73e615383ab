package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbavf/internal/gpu"
	"mbavf/internal/inject"
	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/wire"
)

// synthWorkload builds a deterministic synthetic workload: every run
// (golden and injected alike) stores tid*mult through a tiny kernel, so
// campaigns over it are fast and their outcomes depend only on the
// injected fault.
func synthWorkload(t testing.TB, name string, mult int32) sim.Workload {
	t.Helper()
	return sim.Workload{
		Name: name,
		Run: func(s *sim.Session) error {
			b := gpu.NewBuilder(name)
			b.VMov(gpu.V(0), gpu.Tid())
			b.VMul(gpu.V(1), gpu.V(0), gpu.Imm(mult))
			b.VShl(gpu.V(2), gpu.V(0), gpu.Imm(2))
			b.VAdd(gpu.V(2), gpu.V(2), gpu.S(0))
			b.VStore(gpu.V(2), 0, gpu.V(1))
			b.EndPgm()
			prog, err := b.Build()
			if err != nil {
				return err
			}
			out := s.OutputWords(gpu.Lanes)
			return s.Run(gpu.Dispatch{Prog: prog, Waves: 1, Args: []uint32{out}})
		},
	}
}

// synthCampaign builds a fresh campaign over one of the two synthetic
// test workloads. Separate instances of the same workload produce
// identical goldens, exactly like separate fleet processes running one
// binary.
func synthCampaign(t testing.TB, name string) *inject.Campaign {
	t.Helper()
	mult := int32(3)
	if name == "synthB" {
		mult = 5
	}
	c, err := inject.NewCampaign(synthWorkload(t, name, mult), sim.InjectionConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// synthResolver resolves the synthetic workloads, building each campaign
// at most once per worker (mirroring the production memoization).
func synthResolver(t testing.TB) CampaignResolver {
	var cache map[string]*inject.Campaign
	return func(name string) (*inject.Campaign, error) {
		if cache == nil {
			cache = map[string]*inject.Campaign{}
		}
		if c, ok := cache[name]; ok {
			return c, nil
		}
		if name != "synthA" && name != "synthB" {
			return nil, fmt.Errorf("unknown test workload %q", name)
		}
		c := synthCampaign(t, name)
		cache[name] = c
		return c, nil
	}
}

// startWorker boots one fabric worker on an httptest server.
func startWorker(t testing.TB, cfg WorkerConfig) (*Worker, *httptest.Server) {
	t.Helper()
	if cfg.Campaigns == nil {
		cfg.Campaigns = synthResolver(t)
	}
	w := NewWorker(cfg)
	mux := http.NewServeMux()
	w.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		w.Close()
	})
	return w, srv
}

// fastConfig returns coordinator settings tight enough for tests.
func fastConfig(workers ...string) Config {
	return Config{
		Workers:     workers,
		ShardSize:   5,
		LeaseTTL:    2 * time.Second,
		Heartbeat:   10 * time.Millisecond,
		StallPolls:  200,
		MaxAttempts: 4,
		RetryBase:   5 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
	}
}

const (
	testN    = 36
	testSeed = int64(7)
)

// counterDelta samples a counter before/after (the obs registry is
// process-global, so tests assert deltas, never absolutes).
func counterDelta(name string) func() uint64 {
	obs.Enable()
	before := obs.NewCounter(name).Value()
	return func() uint64 { return obs.NewCounter(name).Value() - before }
}

// TestBitIdenticalAcrossFleets is the tentpole property test: for two
// distinct workloads, a serial run, a 1-worker fleet, a 3-worker fleet,
// and a 3-worker fleet behind a fault-injecting chaos transport all
// produce byte-identical shot lists.
func TestBitIdenticalAcrossFleets(t *testing.T) {
	for _, name := range []string{"synthA", "synthB"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rc := inject.RunConfig{N: testN, Seed: testSeed, Workers: 1}
			serial, err := synthCampaign(t, name).Run(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Complete() {
				t.Fatalf("serial run incomplete: %d/%d", len(serial.Shots), testN)
			}

			_, w1 := startWorker(t, WorkerConfig{})
			_, w2 := startWorker(t, WorkerConfig{})
			_, w3 := startWorker(t, WorkerConfig{})

			cases := []struct {
				label string
				cfg   Config
			}{
				{"one-worker", fastConfig(w1.URL)},
				{"three-workers", fastConfig(w1.URL, w2.URL, w3.URL)},
			}
			chaosCfg := fastConfig(w1.URL, w2.URL, w3.URL)
			chaosCfg.Transport = wire.NewChaosTransport(wire.ChaosConfig{
				Seed:         int64(len(name)) + 41,
				DropRequest:  0.15,
				DropResponse: 0.10,
				Err5xx:       0.10,
				Corrupt:      0.10,
				Delay:        0.20,
				MaxDelay:     5 * time.Millisecond,
			}, nil)
			cases = append(cases, struct {
				label string
				cfg   Config
			}{"three-workers-chaos", chaosCfg})

			for _, tc := range cases {
				co := New(tc.cfg, synthCampaign(t, name))
				rep, err := co.Run(context.Background(), rc)
				if err != nil {
					t.Fatalf("%s: %v", tc.label, err)
				}
				if !reflect.DeepEqual(serial.Shots, rep.Shots) {
					t.Errorf("%s: shots differ from serial run", tc.label)
				}
				if serial.Counts() != rep.Counts() {
					t.Errorf("%s: outcome taxonomy differs: serial %+v vs %+v", tc.label, serial.Counts(), rep.Counts())
				}
			}
		})
	}
}

// TestCoordinatorCrashResume cancels a distributed run mid-campaign and
// resumes from its partial report: the union must equal an uninterrupted
// serial run, shot for shot.
func TestCoordinatorCrashResume(t *testing.T) {
	rc := inject.RunConfig{N: testN, Seed: testSeed, Workers: 1}
	serial, err := synthCampaign(t, "synthA").Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}

	_, w1 := startWorker(t, WorkerConfig{})
	_, w2 := startWorker(t, WorkerConfig{})

	// Phase 1: cancel after a handful of shots have merged.
	ctx, cancel := context.WithCancel(context.Background())
	var merged atomic.Int64
	rc1 := rc
	rc1.OnShot = func(inject.Shot) {
		if merged.Add(1) == 10 {
			cancel()
		}
	}
	co1 := New(fastConfig(w1.URL, w2.URL), synthCampaign(t, "synthA"))
	partial, err := co1.Run(ctx, rc1)
	cancel()
	if err == nil && partial.Complete() {
		t.Skip("campaign finished before the cancellation landed")
	}
	if len(partial.Shots) == 0 {
		t.Fatal("cancelled run drained no shots")
	}

	// Phase 2: a fresh coordinator (the restarted process) resumes from
	// the partial shots, exactly as -resume feeds a checkpoint back in.
	rc2 := rc
	rc2.Completed = partial.Shots
	co2 := New(fastConfig(w1.URL, w2.URL), synthCampaign(t, "synthA"))
	final, err := co2.Run(context.Background(), rc2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Shots, final.Shots) {
		t.Error("resumed run differs from uninterrupted serial run")
	}
	if serial.Counts() != final.Counts() {
		t.Errorf("taxonomy differs: serial %+v vs resumed %+v", serial.Counts(), final.Counts())
	}
}

// TestZeroWorkersFallsBackInProcess covers the graceful-degradation
// floor: no configured workers means the campaign runs locally with
// identical results.
func TestZeroWorkersFallsBackInProcess(t *testing.T) {
	rc := inject.RunConfig{N: 12, Seed: testSeed, Workers: 2}
	serial, err := synthCampaign(t, "synthA").Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	fell := counterDelta("fabric.local_runs")
	co := New(fastConfig(), synthCampaign(t, "synthA"))
	rep, err := co.Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Shots, rep.Shots) {
		t.Error("in-process fallback differs from serial run")
	}
	if fell() == 0 {
		t.Error("fabric.local_runs did not count the fallback")
	}
}

// TestUnreachableFleetFallsBackLocal: every worker URL refuses
// connections, so after the retry budget each lease executes in-process
// — and the results are still identical.
func TestUnreachableFleetFallsBackLocal(t *testing.T) {
	rc := inject.RunConfig{N: 12, Seed: testSeed, Workers: 1}
	serial, err := synthCampaign(t, "synthA").Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	local := counterDelta("fabric.local_leases")
	quar := counterDelta("fabric.worker_quarantines")
	cfg := fastConfig("http://127.0.0.1:1", "http://127.0.0.1:2")
	cfg.MaxAttempts = 2
	cfg.QuarantineAfter = 1
	cfg.QuarantineFor = time.Hour
	co := New(cfg, synthCampaign(t, "synthA"))
	rep, err := co.Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Shots, rep.Shots) {
		t.Error("local-fallback run differs from serial run")
	}
	if local() == 0 {
		t.Error("no leases fell back to local execution")
	}
	if quar() == 0 {
		t.Error("repeat-offender workers were not quarantined")
	}
}

// TestCountersMatchAcrossExecutors: inject.Campaign.Run is the one
// collector of campaign shots, so a serial run, a one-worker fleet and
// an unreachable fleet that falls back in-process add the same
// inject.shots and inject.outcome.* tallies.
func TestCountersMatchAcrossExecutors(t *testing.T) {
	names := []string{"inject.shots", "inject.infra_errors"}
	for _, o := range []inject.Outcome{inject.OutcomeMasked, inject.OutcomeSDC, inject.OutcomeDUE, inject.OutcomeHang, inject.OutcomeCrash} {
		names = append(names, "inject.outcome."+o.String())
	}
	_, w1 := startWorker(t, WorkerConfig{})
	unreachable := fastConfig("http://127.0.0.1:1")
	unreachable.MaxAttempts = 1
	runs := []struct {
		label string
		run   func(context.Context, inject.RunConfig) (*inject.RunReport, error)
	}{
		{"serial", synthCampaign(t, "synthA").Run},
		{"one-worker", New(fastConfig(w1.URL), synthCampaign(t, "synthA")).Run},
		{"unreachable", New(unreachable, synthCampaign(t, "synthA")).Run},
	}
	var want []uint64
	for _, r := range runs {
		deltas := make([]func() uint64, len(names))
		for i, name := range names {
			deltas[i] = counterDelta(name)
		}
		if _, err := r.run(context.Background(), inject.RunConfig{N: testN, Seed: testSeed, Workers: 1}); err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		got := make([]uint64, len(names))
		for i, d := range deltas {
			got[i] = d()
		}
		if want == nil {
			want = got
			if got[0] != testN {
				t.Fatalf("serial run counted %d inject.shots, want %d", got[0], testN)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: deltas of %v = %v, serial run %v", r.label, names, got, want)
		}
	}
}

// TestDispatchBudgetAbortsRun: once more lease dispatches fail than
// Config.ErrorBudget allows, the run stops with ErrDispatchBudget and
// returns its partial report, sorted, with the resumed shots in it.
func TestDispatchBudgetAbortsRun(t *testing.T) {
	rc := inject.RunConfig{N: testN, Seed: testSeed, Workers: 1}
	serial, err := synthCampaign(t, "synthA").Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	// Resume from three shots handed over out of order.
	rc.Completed = []inject.Shot{serial.Shots[9], serial.Shots[2], serial.Shots[20]}
	cfg := fastConfig("http://127.0.0.1:1", "http://127.0.0.1:2")
	cfg.ErrorBudget = 1
	rep, err := New(cfg, synthCampaign(t, "synthA")).Run(context.Background(), rc)
	if !errors.Is(err, ErrDispatchBudget) {
		t.Fatalf("err = %v, want ErrDispatchBudget", err)
	}
	if rep == nil || rep.Complete() || len(rep.Shots) < len(rc.Completed) {
		t.Fatalf("want a partial report holding the resumed shots, got %+v", rep)
	}
	for i, s := range rep.Shots {
		if i > 0 && rep.Shots[i-1].Index >= s.Index {
			t.Fatalf("report not sorted by index: %d after %d", s.Index, rep.Shots[i-1].Index)
		}
		if s != serial.Shots[s.Index] {
			t.Fatalf("shot %d = %+v, serial run %+v", s.Index, s, serial.Shots[s.Index])
		}
	}
}

// brokenCampaign is a CampaignResolver for a workload whose golden run
// names every vector register and whose injected runs fail with a
// non-trap error, so every shot is an infrastructure failure. Each
// campaign counts its own calls, the first being the golden run.
func brokenCampaign(name string) (*inject.Campaign, error) {
	cfg := sim.InjectionConfig()
	var calls atomic.Int64
	w := sim.Workload{
		Name: name,
		Run: func(s *sim.Session) error {
			if calls.Add(1) > 1 {
				return errors.New("scratch disk on fire")
			}
			b := gpu.NewBuilder(name)
			for r := 0; r < cfg.GPU.NumVRegs; r++ {
				b.VMov(gpu.V(r), gpu.Tid())
			}
			b.VShl(gpu.V(1), gpu.V(0), gpu.Imm(2))
			b.VAdd(gpu.V(1), gpu.V(1), gpu.S(0))
			b.VStore(gpu.V(1), 0, gpu.V(0))
			b.EndPgm()
			prog, err := b.Build()
			if err != nil {
				return err
			}
			out := s.OutputWords(gpu.Lanes)
			return s.Run(gpu.Dispatch{Prog: prog, Waves: 1, Args: []uint32{out}})
		},
	}
	return inject.NewCampaign(w, cfg)
}

// TestErrorBudgetOnFleet: the MaxErrors budget aborts a distributed run
// as it does a local one (TestErrorBudgetAbortsGracefully in
// internal/inject), with inject.ErrBudget and the merged shots kept.
func TestErrorBudgetOnFleet(t *testing.T) {
	_, w1 := startWorker(t, WorkerConfig{Campaigns: brokenCampaign})
	c, err := brokenCampaign("broken")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(fastConfig(w1.URL), c).Run(context.Background(), inject.RunConfig{N: testN, Seed: testSeed, MaxErrors: 3})
	if !errors.Is(err, inject.ErrBudget) {
		t.Fatalf("err = %v, want inject.ErrBudget", err)
	}
	if rep.Complete() {
		t.Fatal("budget-aborted campaign should not complete")
	}
	if got := rep.InfraErrors(); got < 4 || got != len(rep.Shots) {
		t.Errorf("kept %d shots, %d of them failed; want >= 4, all failed", len(rep.Shots), got)
	}
	for _, s := range rep.Shots {
		if !strings.Contains(s.Err, "infrastructure") {
			t.Fatalf("shot error %q does not mark infrastructure failure", s.Err)
		}
	}
}

// stallServer imitates a sick worker: it accepts every lease and then
// reports running-with-no-progress forever — the straggler the stall
// detector exists for.
func stallServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	state := func(rw http.ResponseWriter, status int, id string) {
		wire.WriteJSON(rw, status, LeaseState{ID: id, State: LeaseRunning})
	}
	mux.HandleFunc("POST "+PathLease, func(rw http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		state(rw, http.StatusAccepted, req.ID)
	})
	mux.HandleFunc("GET "+PathLease+"/{id}", func(rw http.ResponseWriter, r *http.Request) {
		state(rw, http.StatusOK, r.PathValue("id"))
	})
	mux.HandleFunc("DELETE "+PathLease+"/{id}", func(rw http.ResponseWriter, r *http.Request) {
		state(rw, http.StatusOK, r.PathValue("id"))
	})
	mux.HandleFunc("GET "+PathHealth, func(rw http.ResponseWriter, _ *http.Request) {
		wire.WriteJSON(rw, http.StatusOK, Health{Status: "ok"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestStalledLeaseIsStolen pairs a healthy worker with a stalling one:
// leases dispatched to the straggler must be stolen, re-dispatched, and
// still produce bit-identical results.
func TestStalledLeaseIsStolen(t *testing.T) {
	rc := inject.RunConfig{N: 20, Seed: testSeed, Workers: 1}
	serial, err := synthCampaign(t, "synthA").Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	_, good := startWorker(t, WorkerConfig{})
	bad := stallServer(t)

	stolen := counterDelta("fabric.leases_stolen")
	stalled := counterDelta("fabric.leases_stalled")
	cfg := fastConfig(bad.URL, good.URL)
	cfg.StallPolls = 3
	co := New(cfg, synthCampaign(t, "synthA"))
	rep, err := co.Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Shots, rep.Shots) {
		t.Error("run with straggler differs from serial run")
	}
	if stolen() == 0 {
		t.Error("no leases were stolen from the stalling worker")
	}
	if stalled() == 0 {
		t.Error("stall detector never fired")
	}
}

// corruptServer executes nothing and returns a plausible done-state with
// shots that do not match their checksum — the malicious/bit-rotted
// worker the response validation must catch.
func corruptServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	done := func(rw http.ResponseWriter, id string) {
		shots := []inject.Shot{{Index: 0, Outcome: inject.OutcomeSDC}}
		_ = json.NewEncoder(rw).Encode(LeaseState{
			ID: id, State: LeaseDone, Completed: 1, Total: 1,
			Shots: shots,
		})
	}
	mux.HandleFunc("POST "+PathLease, func(rw http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		rw.WriteHeader(http.StatusAccepted)
		done(rw, req.ID)
	})
	mux.HandleFunc("GET "+PathLease+"/{id}", func(rw http.ResponseWriter, r *http.Request) {
		done(rw, r.PathValue("id"))
	})
	mux.HandleFunc("GET "+PathHealth, func(rw http.ResponseWriter, _ *http.Request) {
		wire.WriteJSON(rw, http.StatusOK, Health{Status: "ok"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestChecksumRejectAndRedispatch proves a worker returning corrupt
// payloads cannot poison a campaign: its results are rejected on
// checksum and the leases re-dispatch to the honest worker.
func TestChecksumRejectAndRedispatch(t *testing.T) {
	rc := inject.RunConfig{N: 20, Seed: testSeed, Workers: 1}
	serial, err := synthCampaign(t, "synthA").Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	_, good := startWorker(t, WorkerConfig{})
	bad := corruptServer(t)

	rejects := counterDelta("fabric.checksum_rejects")
	co := New(fastConfig(bad.URL, good.URL), synthCampaign(t, "synthA"))
	rep, err := co.Run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Shots, rep.Shots) {
		t.Error("run with corrupt worker differs from serial run")
	}
	if rejects() == 0 {
		t.Error("corrupt payloads were never rejected")
	}
}

// TestWorkerLeaseLifecycle exercises the worker endpoints directly:
// idempotent creation, heartbeat polling to completion, release, and the
// golden-mismatch fatal.
func TestWorkerLeaseLifecycle(t *testing.T) {
	_, srv := startWorker(t, WorkerConfig{})
	client := srv.Client()

	post := func(req LeaseRequest) (LeaseState, int) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := client.Post(srv.URL+PathLease, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st LeaseState
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return st, resp.StatusCode
	}
	get := func(id string) (LeaseState, int) {
		t.Helper()
		resp, err := client.Get(srv.URL + PathLease + "/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st LeaseState
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return st, resp.StatusCode
	}

	campaign := synthCampaign(t, "synthA")
	req := LeaseRequest{
		ID: "shots:test:1", Kind: KindShots, Workload: "synthA",
		Seed: testSeed, Start: 0, End: 4,
		Golden: inject.GoldenDigest(campaign.Golden()),
	}
	if _, code := post(req); code != http.StatusAccepted {
		t.Fatalf("first POST: status %d, want 202", code)
	}
	if _, code := post(req); code != http.StatusOK {
		t.Fatalf("re-POST: status %d, want 200 (idempotent re-attach)", code)
	}

	deadline := time.Now().Add(30 * time.Second)
	var st LeaseState
	for {
		var code int
		st, code = get(req.ID)
		if code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
		if st.State == LeaseDone || st.State == LeaseFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != LeaseDone || len(st.Shots) != 4 {
		t.Fatalf("lease state %q with %d shots, want done with 4", st.State, len(st.Shots))
	}
	if resp, err := client.Get(srv.URL + PathLease + "/" + req.ID); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.Header.Get(wire.ChecksumHeader) != wire.Checksum(body) {
			t.Error("worker checksum does not validate")
		}
	}
	for i, s := range st.Shots {
		if want := campaign.RunShot(testSeed, i); !reflect.DeepEqual(want, s) {
			t.Errorf("shot %d differs from local execution", i)
		}
	}

	// Release, then poll: the lease must be gone.
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+PathLease+"/"+req.ID, nil)
	if resp, err := client.Do(delReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if _, code := get(req.ID); code != http.StatusNotFound {
		t.Errorf("poll after release: status %d, want 404", code)
	}

	// A lease whose golden digest disagrees must fail fatally.
	bad := req
	bad.ID = "shots:test:badgolden"
	bad.Golden = "0000000000000000"
	if _, code := post(bad); code != http.StatusAccepted {
		t.Fatalf("bad-golden POST: status %d", code)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		st, _ = get(bad.ID)
		if st.State == LeaseFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bad-golden lease never failed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !st.Fatal {
		t.Error("golden mismatch was not marked fatal")
	}

	// A shot range too long for any lease is refused fatally before the
	// worker sizes anything from it, and the worker keeps serving.
	long := []byte(`{"id":"x","kind":"shots","workload":"synthA","start":0,"end":4611686018427387904}`)
	if resp, err := client.Post(srv.URL+PathLease, "application/json", bytes.NewReader(long)); err != nil {
		t.Fatal(err)
	} else {
		var st LeaseState
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !st.Fatal {
			t.Errorf("overlong shot range: status %d fatal %v, want 400 fatal", resp.StatusCode, st.Fatal)
		}
	}
	if _, code := get(req.ID); code != http.StatusNotFound {
		t.Errorf("poll after overlong POST: status %d, want 404 from a live worker", code)
	}

	// A lease body over maxLeaseBytes is refused whole, fatally.
	huge := req
	huge.ID = strings.Repeat("x", maxLeaseBytes)
	if st, code := post(huge); code != http.StatusRequestEntityTooLarge || !st.Fatal {
		t.Errorf("oversized POST: status %d fatal %v, want 413 fatal", code, st.Fatal)
	}

	// A lease damaged in transit — "seed":7 flipped to "seed":5, one bit
	// — no longer matches the checksum it was sent with. It is refused
	// 400, not fatally (a re-sent copy can succeed), and never starts.
	flip := req
	flip.ID = "shots:test:damaged"
	sent, _ := json.Marshal(flip)
	damaged := bytes.Replace(sent, []byte(`"seed":7`), []byte(`"seed":5`), 1)
	if bytes.Equal(damaged, sent) {
		t.Fatal("lease body does not contain \"seed\":7")
	}
	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+PathLease, bytes.NewReader(damaged))
	hreq.Header.Set(wire.ChecksumHeader, wire.Checksum(sent))
	resp, err := client.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var dst LeaseState
	_ = json.NewDecoder(resp.Body).Decode(&dst)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || dst.Fatal {
		t.Errorf("damaged POST: status %d fatal %v, want 400 not fatal", resp.StatusCode, dst.Fatal)
	}
	if _, code := get(flip.ID); code != http.StatusNotFound {
		t.Errorf("poll after damaged POST: status %d, want 404", code)
	}
}

// TestWorkerGCExpiresOrphanedLeases: a lease nobody polls is swept after
// the worker-side TTL, so a crashed coordinator cannot leak work.
func TestWorkerGCExpiresOrphanedLeases(t *testing.T) {
	w, srv := startWorker(t, WorkerConfig{LeaseTTL: 50 * time.Millisecond, ShotDelay: 10 * time.Millisecond})
	client := srv.Client()
	body, _ := json.Marshal(LeaseRequest{
		ID: "shots:test:orphan", Kind: KindShots, Workload: "synthA",
		Seed: testSeed, Start: 0, End: 100,
	})
	resp, err := client.Post(srv.URL+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}
	time.Sleep(100 * time.Millisecond)
	w.sweep()
	gr, err := client.Get(srv.URL + PathLease + "/shots:test:orphan")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Errorf("orphaned lease still alive after TTL: status %d", gr.StatusCode)
	}
}

// TestAVFBatchDistributed runs an AVF query batch through a worker fleet
// and checks order preservation, per-item errors, and equality with the
// in-process evaluator.
func TestAVFBatchDistributed(t *testing.T) {
	eval := func(_ context.Context, q AVFQuery) (json.RawMessage, error) {
		if q.Workload == "bad" {
			return nil, fmt.Errorf("no such workload")
		}
		return json.Marshal(map[string]any{"workload": q.Workload, "factor": q.Factor})
	}
	_, w1 := startWorker(t, WorkerConfig{AVF: eval})
	_, w2 := startWorker(t, WorkerConfig{AVF: eval})

	queries := make([]AVFQuery, 12)
	for i := range queries {
		queries[i] = AVFQuery{Workload: fmt.Sprintf("wl%d", i), Factor: i}
	}
	queries[5].Workload = "bad"

	cfg := fastConfig(w1.URL, w2.URL)
	cfg.ShardSize = 3
	cfg.LocalAVF = eval
	co := New(cfg, nil)
	items, err := co.RunAVFBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(queries) {
		t.Fatalf("got %d items for %d queries", len(items), len(queries))
	}
	for i, it := range items {
		if i == 5 {
			if it.Error == "" {
				t.Error("bad query did not carry its error")
			}
			continue
		}
		want, _ := eval(context.Background(), queries[i])
		if string(it.Result) != string(want) {
			t.Errorf("item %d: got %s want %s", i, it.Result, want)
		}
	}

	// Unreachable fleet: the same batch degrades to LocalAVF.
	cfg2 := fastConfig("http://127.0.0.1:1")
	cfg2.ShardSize = 3
	cfg2.MaxAttempts = 1
	cfg2.LocalAVF = eval
	localItems, err := New(cfg2, nil).RunAVFBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, localItems) {
		t.Error("distributed and local AVF batches differ")
	}
}

// TestChaosTransportInjects sanity-checks the chaos transport itself:
// with all probabilities at 1 the request never goes through; at 0 it is
// transparent.
func TestChaosTransportInjects(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(rw, `{"ok":true}`)
	}))
	t.Cleanup(srv.Close)

	drop := wire.NewChaosTransport(wire.ChaosConfig{DropRequest: 1}, nil)
	if _, err := (&http.Client{Transport: drop}).Get(srv.URL); err == nil {
		t.Error("DropRequest=1 let a request through")
	}
	if drop.Injected()["drop_request"] == 0 {
		t.Error("drop not recorded")
	}

	clean := wire.NewChaosTransport(wire.ChaosConfig{}, nil)
	resp, err := (&http.Client{Transport: clean}).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !out.OK {
		t.Errorf("zero-probability chaos mangled the response: %v %+v", err, out)
	}

	corrupt := wire.NewChaosTransport(wire.ChaosConfig{Corrupt: 1, Seed: 3}, nil)
	resp2, err := (&http.Client{Transport: corrupt}).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 struct {
		OK bool `json:"ok"`
	}
	derr := json.NewDecoder(resp2.Body).Decode(&out2)
	if derr == nil && out2.OK && corrupt.Injected()["corrupt"] == 0 {
		t.Error("Corrupt=1 left the body untouched")
	}
}

// TestLeaseRequestValidate covers the malformed-lease rejections.
func TestLeaseRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  LeaseRequest
		ok   bool
	}{
		{"valid shots", LeaseRequest{ID: "a", Kind: KindShots, Workload: "w", Start: 0, End: 4}, true},
		{"valid avf", LeaseRequest{ID: "a", Kind: KindAVF, Queries: []AVFQuery{{Workload: "w"}}}, true},
		{"no id", LeaseRequest{Kind: KindShots, Workload: "w", End: 4}, false},
		{"no workload", LeaseRequest{ID: "a", Kind: KindShots, End: 4}, false},
		{"empty range", LeaseRequest{ID: "a", Kind: KindShots, Workload: "w", Start: 4, End: 4}, false},
		{"no queries", LeaseRequest{ID: "a", Kind: KindAVF}, false},
		{"bad kind", LeaseRequest{ID: "a", Kind: "nonsense"}, false},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
