package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mbavf/internal/inject"
	"mbavf/internal/obs"
	"mbavf/internal/wire"
)

// Coordinator-side observability; /metrics exposes them as
// mbavf_fabric_*.
var (
	obsDispatched      = obs.NewCounter("fabric.leases_dispatched")
	obsLeasesDone      = obs.NewCounter("fabric.leases_completed")
	obsLeasesExpired   = obs.NewCounter("fabric.leases_expired")
	obsLeasesStolen    = obs.NewCounter("fabric.leases_stolen")
	obsLeasesStalled   = obs.NewCounter("fabric.leases_stalled")
	obsLeaseRetries    = obs.NewCounter("fabric.lease_retries")
	obsChecksumRejects = obs.NewCounter("fabric.checksum_rejects")
	obsQuarantines     = obs.NewCounter("fabric.worker_quarantines")
	obsLocalLeases     = obs.NewCounter("fabric.local_leases")
	obsLocalRuns       = obs.NewCounter("fabric.local_runs")
	obsDuplicateShots  = obs.NewCounter("fabric.duplicate_shots")
	obsDispatchNS      = obs.NewHistogram("fabric.dispatch_ns")
	obsLeaseNS         = obs.NewHistogram("fabric.lease_ns")
	obsQuarantined     = obs.NewGauge("fabric.workers_quarantined")
)

// ErrDispatchBudget reports that a distributed run was aborted because
// more lease dispatches failed than Config.ErrorBudget allows.
var ErrDispatchBudget = errors.New("fabric: dispatch error budget exceeded")

// errChecksum marks a lease response that failed validation — a body
// without its checksum, or a result that does not fit its lease.
var errChecksum = errors.New("fabric: response checksum mismatch")

// errLeaseLost marks a poll answered with 404: the worker restarted (or
// GC'd the lease) and no longer holds it. Fail fast and re-dispatch
// rather than polling a ghost until the deadline.
var errLeaseLost = errors.New("fabric: lease lost by worker")

func errGoldenMismatch(workload string) error {
	return fmt.Errorf("fabric: golden digest mismatch for workload %q (coordinator and worker disagree on the fault-free run)", workload)
}

// Config tunes a coordinator.
type Config struct {
	// Workers is the fleet's base URLs (e.g. "http://host:8080"). Empty
	// means every run degrades to in-process execution.
	Workers []string
	// ShardSize is the number of shots (or AVF queries) per lease
	// (default 64, at most 65536).
	ShardSize int
	// LeaseTTL is how long a lease may go without a successful heartbeat
	// poll before the coordinator declares it expired and re-dispatches
	// (default 15s). Every successful poll renews the deadline.
	LeaseTTL time.Duration
	// Heartbeat is the poll interval (default LeaseTTL/10, min 50ms).
	Heartbeat time.Duration
	// StallPolls is the number of consecutive successful polls without
	// forward progress before a lease is declared a straggler and stolen
	// (default 40; 0 disables stall detection).
	StallPolls int
	// MaxAttempts bounds dispatch attempts per lease before the
	// coordinator executes it in-process (default 4).
	MaxAttempts int
	// RetryBase/RetryMax shape the exponential backoff between attempts,
	// jittered ±50% by wire.Backoff (defaults 100ms / 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// ErrorBudget aborts the whole run once more than this many lease
	// dispatches have failed (0 = unlimited: every failure retries or
	// falls back locally).
	ErrorBudget int
	// QuarantineAfter is the consecutive-failure count that quarantines
	// a worker (default 3); QuarantineFor is how long it sits out before
	// a health probe may reinstate it (default 30s).
	QuarantineAfter int
	QuarantineFor   time.Duration
	// ObsScrapeInterval is how often the coordinator scrapes each
	// worker's /fabric/v1/obs snapshot into the merged mbavf_fleet_*
	// series while a run is in flight (default 1s). Scraping only
	// happens when the obs layer is enabled, so a metrics-off run pays
	// nothing.
	ObsScrapeInterval time.Duration
	// Transport overrides the HTTP transport — the chaos-injection
	// point for fault-tolerance tests (default http.DefaultTransport).
	Transport http.RoundTripper
	// LocalAVF evaluates AVF queries in-process when no worker can —
	// the graceful-degradation path for KindAVF leases.
	LocalAVF AVFEvaluator
}

func (c Config) withDefaults() Config {
	if c.ShardSize <= 0 {
		c.ShardSize = 64
	}
	c.ShardSize = min(c.ShardSize, maxLeaseShots)
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = max(c.LeaseTTL/10, 50*time.Millisecond)
	}
	if c.StallPolls == 0 {
		c.StallPolls = 40
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.QuarantineFor <= 0 {
		c.QuarantineFor = 30 * time.Second
	}
	if c.ObsScrapeInterval <= 0 {
		c.ObsScrapeInterval = time.Second
	}
	return c
}

// workerRef tracks one worker's health for quarantine decisions.
type workerRef struct {
	url string

	mu               sync.Mutex
	fails            int
	quarantinedUntil time.Time
}

// Coordinator shards work into leases and dispatches them to a worker
// fleet, falling back to in-process execution when the fleet cannot
// help. It is safe for concurrent use.
type Coordinator struct {
	cfg      Config
	local    *inject.Campaign // nil for AVF-only coordinators
	workload string
	golden   string

	client   *http.Client
	workers  []*workerRef
	rr       atomic.Uint64
	failures atomic.Int64
}

// New builds a coordinator. campaign is the local fallback executor and
// the source of the golden digest workers must agree with; it may be nil
// for coordinators that only dispatch AVF batches.
func New(cfg Config, campaign *inject.Campaign) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:    cfg,
		local:  campaign,
		client: &http.Client{Transport: cfg.Transport},
	}
	if campaign != nil {
		co.workload = campaign.Workload()
		co.golden = inject.GoldenDigest(campaign.Golden())
	}
	for _, u := range cfg.Workers {
		co.workers = append(co.workers, &workerRef{url: u})
	}
	return co
}

// leaseJob is one unit of dispatch: a lease request plus its retry
// bookkeeping, the campaign trace ID it propagates, and, for AVF
// leases, its offset into the caller's batch.
type leaseJob struct {
	req    LeaseRequest
	trace  string
	offset int
}

// leaseOutcome is one finished (or abandoned) lease.
type leaseOutcome struct {
	job   *leaseJob
	shots []inject.Shot
	items []AVFItem
	err   error
}

// Run executes a campaign of rc.N shots across the fleet. It is
// (*inject.Campaign).Run with the fleet as executor, so the report is
// bit-identical to a serial run for any fleet size and any failure
// history, and cancellation, rc.Timeout, rc.MaxErrors, rc.Completed,
// rc.OnShot and the inject.* tallies behave exactly as on the local
// path — the existing checkpoint machinery works unchanged on top.
func (co *Coordinator) Run(ctx context.Context, rc inject.RunConfig) (*inject.RunReport, error) {
	if co.local == nil {
		return nil, errors.New("fabric: coordinator has no campaign")
	}
	if len(co.cfg.Workers) == 0 {
		// Zero workers configured: the whole campaign runs in-process on
		// the existing parallel pool. Same results, no fabric overhead.
		obsLocalRuns.Add(1)
		return co.local.Run(ctx, rc)
	}
	return co.local.RunOn(ctx, rc, func(ctx context.Context, spans []inject.Span, out chan<- inject.Shot) error {
		return co.runShots(ctx, rc, spans, out)
	})
}

// runShots is the fleet executor of Run: it shards each pending span
// into leases, dispatches them, and forwards each shot index once. When
// the dispatch error budget trips it cancels its own dispatch and
// returns the ErrDispatchBudget error.
func (co *Coordinator) runShots(ctx context.Context, rc inject.RunConfig, spans []inject.Span, out chan<- inject.Shot) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The campaign trace ID is deterministic in (workload, seed, N): a
	// coordinator restart re-joins the same logical trace, and the ID
	// doubles as the campaign key of every lifecycle event.
	traceID := fmt.Sprintf("campaign:%s:%d:%d", co.workload, rc.Seed, rc.N)
	jobs := co.shotJobs(rc, spans, traceID)
	// reported counts the shots of the final report: the resumed ones
	// (every index outside spans) plus each one forwarded.
	reported := rc.N
	for _, sp := range spans {
		reported -= sp.End - sp.Start
	}

	sp := obs.StartSpan2("fabric:", co.workload)
	defer sp.End()
	obs.TraceAsyncBegin("campaign", "campaign:"+co.workload, traceID)
	defer obs.TraceAsyncEnd("campaign", "campaign:"+co.workload, traceID)
	obs.LogEvent(obs.Event{Type: "campaign.start", Campaign: traceID, N: rc.N})
	defer func() {
		obs.LogEvent(obs.Event{Type: "campaign.done", Campaign: traceID, N: reported})
	}()
	stopScrape := co.startFleetScrape(ctx)
	defer stopScrape()

	var dispatchErr error
	sent := make(map[int]bool)
	for o := range co.dispatch(ctx, jobs) {
		if errors.Is(o.err, ErrDispatchBudget) && dispatchErr == nil {
			dispatchErr = o.err
			cancel()
		}
		for _, s := range o.shots {
			if sent[s.Index] {
				// A stolen lease's original owner also finished, or a
				// retried POST re-attached: determinism makes the copies
				// identical, so reconciliation is "keep the first".
				obsDuplicateShots.Add(1)
				continue
			}
			sent[s.Index] = true
			reported++
			out <- s
		}
	}
	return dispatchErr
}

// RunAVFBatch evaluates a batch of AVF queries across the fleet,
// preserving order: item i answers queries[i]. Workers that fail are
// retried elsewhere; with no reachable worker the batch is evaluated
// in-process through Config.LocalAVF.
func (co *Coordinator) RunAVFBatch(ctx context.Context, queries []AVFQuery) ([]AVFItem, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	items := make([]AVFItem, len(queries))
	if len(queries) == 0 {
		return items, nil
	}
	data, _ := json.Marshal(queries)
	sum := sha256.Sum256(data)
	traceID := fmt.Sprintf("avf-batch:%d:%s", len(queries), hex.EncodeToString(sum[:8]))
	var jobs []*leaseJob
	for off := 0; off < len(queries); off += co.cfg.ShardSize {
		end := min(off+co.cfg.ShardSize, len(queries))
		batch := queries[off:end]
		jobs = append(jobs, &leaseJob{
			req: LeaseRequest{
				ID:      avfLeaseID(batch, off),
				Kind:    KindAVF,
				Queries: batch,
			},
			trace:  traceID,
			offset: off,
		})
	}
	var dispatchErr error
	for out := range co.dispatch(ctx, jobs) {
		if out.err != nil {
			if dispatchErr == nil {
				dispatchErr = out.err
			}
			msg := out.err.Error()
			for i := range out.job.req.Queries {
				items[out.job.offset+i] = AVFItem{Error: msg}
			}
			continue
		}
		copy(items[out.job.offset:], out.items)
	}
	if dispatchErr == nil {
		dispatchErr = ctx.Err()
	}
	return items, dispatchErr
}

// avfLeaseID derives a deterministic lease ID from the batch content, so
// coordinator retries and restarts re-attach to in-flight work instead
// of duplicating it.
func avfLeaseID(batch []AVFQuery, off int) string {
	data, _ := json.Marshal(batch)
	sum := sha256.Sum256(data)
	return fmt.Sprintf("avf:%d:%s", off, hex.EncodeToString(sum[:8]))
}

// shotJobs shards each pending span into contiguous leased ranges of
// at most ShardSize shots.
func (co *Coordinator) shotJobs(rc inject.RunConfig, spans []inject.Span, traceID string) []*leaseJob {
	var jobs []*leaseJob
	for _, sp := range spans {
		for s := sp.Start; s < sp.End; s += co.cfg.ShardSize {
			e := min(s+co.cfg.ShardSize, sp.End)
			jobs = append(jobs, &leaseJob{req: LeaseRequest{
				ID:       fmt.Sprintf("shots:%s:%d:%d:%d-%d", co.workload, rc.Seed, rc.N, s, e),
				Kind:     KindShots,
				Workload: co.workload,
				Seed:     rc.Seed,
				Start:    s,
				End:      e,
				Golden:   co.golden,
			}, trace: traceID})
		}
	}
	return jobs
}

// dispatch drives every job through the lease pipeline on a bounded pool
// and streams outcomes. The returned channel closes when every job has
// an outcome (even under cancellation: a cancelled job yields its
// context error, never blocks).
func (co *Coordinator) dispatch(ctx context.Context, jobs []*leaseJob) <-chan leaseOutcome {
	in := make(chan *leaseJob)
	out := make(chan leaseOutcome)
	var wg sync.WaitGroup
	// At most two leases in flight per worker.
	for range min(max(2*len(co.workers), 1), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range in {
				out <- co.runLease(ctx, j)
			}
		}()
	}
	go func() {
		defer close(in)
		for _, j := range jobs {
			select {
			case in <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// runLease drives one lease to a result: dispatch to a healthy worker,
// poll with heartbeat renewal, and on failure retry with exponential
// backoff and jitter — stealing the lease to another worker — until
// attempts are exhausted and the lease executes in-process. The only
// unrecoverable outcomes are context cancellation and the dispatch
// error budget.
func (co *Coordinator) runLease(ctx context.Context, j *leaseJob) leaseOutcome {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return leaseOutcome{job: j, err: err}
		}
		w := co.pickWorker(ctx)
		if w == nil || attempt >= co.cfg.MaxAttempts {
			return co.runLeaseLocal(ctx, j)
		}
		st, held, err := co.executeLease(ctx, w, j)
		if err == nil {
			co.noteSuccess(w)
			return leaseOutcome{job: j, shots: st.Shots, items: st.Items}
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctx.Err() != nil {
				return leaseOutcome{job: j, err: err}
			}
		}
		if st != nil && st.Fatal {
			// Retrying elsewhere cannot fix a fatal lease (e.g. golden
			// mismatch); the local executor is the authority.
			return co.runLeaseLocal(ctx, j)
		}
		co.noteFailure(w)
		obsLeaseRetries.Add(1)
		obs.LogEvent(obs.Event{Type: "lease.retry", Campaign: j.trace, Lease: j.req.ID, Worker: w.url, N: attempt + 1, Note: err.Error()})
		if held {
			// A worker actually held this lease and we are abandoning it:
			// the re-dispatch is a steal.
			obsLeasesStolen.Add(1)
			obs.LogEvent(obs.Event{Type: "lease.stolen", Campaign: j.trace, Lease: j.req.ID, Worker: w.url})
			obs.TraceAsyncInstant("campaign", "steal "+j.req.ID, j.trace)
		}
		if co.cfg.ErrorBudget > 0 && co.failures.Add(1) > int64(co.cfg.ErrorBudget) {
			return leaseOutcome{job: j, err: fmt.Errorf("%w (lease %s: %v)", ErrDispatchBudget, j.req.ID, err)}
		}
		_ = wire.Backoff(ctx, attempt, co.cfg.RetryBase, co.cfg.RetryMax) // ctx is checked at the loop top
	}
}

// runLeaseLocal executes a lease in-process — the graceful-degradation
// path when the fleet is unreachable, quarantined, or out of attempts.
// Partial shot progress under cancellation is still returned so drains
// checkpoint everything already computed.
func (co *Coordinator) runLeaseLocal(ctx context.Context, j *leaseJob) leaseOutcome {
	obsLocalLeases.Add(1)
	obs.LogEvent(obs.Event{Type: "lease.local", Campaign: j.trace, Lease: j.req.ID, N: j.req.total()})
	switch j.req.Kind {
	case KindShots:
		if co.local == nil {
			return leaseOutcome{job: j, err: errors.New("fabric: no local campaign for shot lease")}
		}
		shots := make([]inject.Shot, 0, j.req.End-j.req.Start)
		for i := j.req.Start; i < j.req.End; i++ {
			if ctx.Err() != nil {
				return leaseOutcome{job: j, shots: shots}
			}
			shots = append(shots, co.local.RunShot(j.req.Seed, i))
		}
		return leaseOutcome{job: j, shots: shots}
	case KindAVF:
		if co.cfg.LocalAVF == nil {
			return leaseOutcome{job: j, err: errors.New("fabric: no local AVF evaluator")}
		}
		items := make([]AVFItem, 0, len(j.req.Queries))
		for _, q := range j.req.Queries {
			if err := ctx.Err(); err != nil {
				return leaseOutcome{job: j, err: err}
			}
			res, err := co.cfg.LocalAVF(ctx, q)
			if err != nil {
				items = append(items, AVFItem{Error: err.Error()})
			} else {
				items = append(items, AVFItem{Result: res})
			}
		}
		return leaseOutcome{job: j, items: items}
	}
	return leaseOutcome{job: j, err: fmt.Errorf("fabric: unknown lease kind %q", j.req.Kind)}
}

// executeLease dispatches one lease to one worker and polls it to
// completion. held reports whether the worker accepted the lease (a
// failure after that point abandons held work — a steal). Every
// successful poll renews the lease deadline; consecutive polls without
// progress trip the straggler detector.
func (co *Coordinator) executeLease(ctx context.Context, w *workerRef, j *leaseJob) (st *LeaseState, held bool, err error) {
	req := j.req
	began := time.Now()
	sp := obs.StartSpan2("dispatch:", req.ID)
	st, err = co.post(ctx, w, j)
	sp.End()
	if err != nil {
		return st, false, err
	}
	held = true
	obsDispatched.Add(1)
	obsDispatchNS.Record(uint64(time.Since(began)))
	obs.LogEvent(obs.Event{Type: "lease.dispatched", Campaign: j.trace, Lease: req.ID, Worker: w.url, N: req.total()})
	obs.TraceAsyncInstant("campaign", "dispatch "+req.ID, j.trace)

	deadline := time.Now().Add(co.cfg.LeaseTTL)
	lastProgress := st.Completed
	stalls := 0
	for {
		switch st.State {
		case LeaseDone:
			if err := co.verify(st, req); err != nil {
				co.reject(w, j, err)
				co.release(w, req.ID)
				return st, held, err
			}
			obsLeasesDone.Add(1)
			obsLeaseNS.Record(uint64(time.Since(began)))
			obs.LogEvent(obs.Event{Type: "lease.completed", Campaign: j.trace, Lease: req.ID, Worker: w.url,
				DurNS: int64(time.Since(began)), N: st.Completed})
			return st, held, nil
		case LeaseFailed:
			return st, held, fmt.Errorf("fabric: lease %s failed on %s: %s", req.ID, w.url, st.Error)
		}

		select {
		case <-ctx.Done():
			co.release(w, req.ID)
			return st, held, ctx.Err()
		case <-time.After(co.cfg.Heartbeat):
		}

		next, perr := co.poll(ctx, w, j)
		now := time.Now()
		if perr != nil {
			if errors.Is(perr, errLeaseLost) {
				obsLeasesExpired.Add(1)
				obs.LogEvent(obs.Event{Type: "lease.expired", Campaign: j.trace, Lease: req.ID, Worker: w.url, Note: perr.Error()})
				return st, held, perr
			}
			if now.After(deadline) {
				obsLeasesExpired.Add(1)
				obs.LogEvent(obs.Event{Type: "lease.expired", Campaign: j.trace, Lease: req.ID, Worker: w.url, Note: perr.Error()})
				return st, held, fmt.Errorf("fabric: lease %s on %s expired without heartbeat: %w", req.ID, w.url, perr)
			}
			continue // transient poll failure; the deadline is the judge
		}
		deadline = now.Add(co.cfg.LeaseTTL) // heartbeat renewal
		if next.Completed > lastProgress {
			lastProgress = next.Completed
			stalls = 0
			obs.LogEvent(obs.Event{Type: "lease.heartbeat", Campaign: j.trace, Lease: req.ID, Worker: w.url, N: next.Completed})
		} else if next.State == LeaseRunning {
			stalls++
			if co.cfg.StallPolls > 0 && stalls >= co.cfg.StallPolls {
				obsLeasesStalled.Add(1)
				obs.LogEvent(obs.Event{Type: "lease.stalled", Campaign: j.trace, Lease: req.ID, Worker: w.url, N: stalls})
				obs.TraceAsyncInstant("campaign", "stall "+req.ID, j.trace)
				co.release(w, req.ID)
				return next, held, fmt.Errorf("fabric: lease %s stalled on %s (%d polls without progress)", req.ID, w.url, stalls)
			}
		}
		st = next
	}
}

// verify cross-checks a done lease's payload against the lease — the
// defense against fabricated responses; the body checksum already
// vouched for the bytes.
func (co *Coordinator) verify(st *LeaseState, req LeaseRequest) error {
	switch req.Kind {
	case KindShots:
		if len(st.Shots) != req.End-req.Start {
			return fmt.Errorf("%w: lease %s returned %d shots, want %d", errChecksum, req.ID, len(st.Shots), req.End-req.Start)
		}
		for _, s := range st.Shots {
			if s.Index < req.Start || s.Index >= req.End {
				return fmt.Errorf("%w: lease %s returned out-of-range shot %d", errChecksum, req.ID, s.Index)
			}
		}
	case KindAVF:
		if len(st.Items) != len(req.Queries) {
			return fmt.Errorf("%w: lease %s returned %d items, want %d", errChecksum, req.ID, len(st.Items), len(req.Queries))
		}
	}
	return nil
}

// reject counts and logs a lease response that failed validation.
func (co *Coordinator) reject(w *workerRef, j *leaseJob, err error) {
	obsChecksumRejects.Add(1)
	obs.LogEvent(obs.Event{Type: "lease.checksum_reject", Campaign: j.trace, Lease: j.req.ID, Worker: w.url, Note: err.Error()})
	obs.TraceAsyncInstant("campaign", "checksum-reject "+j.req.ID, j.trace)
}

// maxResponseBytes bounds every response body the coordinator reads.
const maxResponseBytes = 64 << 20

// detachedTimeout bounds the requests that must work while a run tears
// down (release, the final obs scrape) and the health probe.
const detachedTimeout = 2 * time.Second

// leaseCall sends one lease request to w — the POST, or a poll — and
// decodes the LeaseState it answers, with the status. Every lease
// response must carry a matching checksum: one that fails the check,
// or has none, is a checksum reject. An error status without a
// checksum (a proxy's 503) is no lease response; it is returned as a
// status error.
func (co *Coordinator) leaseCall(ctx context.Context, w *workerRef, j *leaseJob, method, url string, body []byte) (*LeaseState, int, error) {
	// The trace headers carry the campaign trace ID, the lease ID and
	// this coordinator's span identity, so the worker's trace events
	// correlate with the coordinator's after a merge.
	hdr := http.Header{}
	if body != nil {
		hdr.Set("Content-Type", "application/json")
	}
	if j.trace != "" {
		hdr.Set(HeaderTraceID, j.trace)
		hdr.Set(HeaderLeaseID, j.req.ID)
		hdr.Set(HeaderParentSpan, "campaign:"+j.trace)
	}
	resp, err := wire.Do(ctx, co.client, method, url, hdr, body, wire.Limit(maxResponseBytes))
	if err == nil && resp.Header.Get(wire.ChecksumHeader) == "" {
		if resp.Status/100 != 2 {
			return nil, resp.Status, fmt.Errorf("fabric: %s %s: %w", method, url, resp.Err())
		}
		err = fmt.Errorf("%w: %s %s answered without one", errChecksum, method, url)
	}
	if err != nil {
		if errors.Is(err, wire.ErrChecksum) || errors.Is(err, errChecksum) {
			co.reject(w, j, err)
		}
		return nil, 0, err
	}
	var st LeaseState
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		return nil, resp.Status, fmt.Errorf("fabric: decoding lease response from %s: %w", w.url, err)
	}
	return &st, resp.Status, nil
}

// post creates (or re-attaches to) a lease on a worker.
func (co *Coordinator) post(ctx context.Context, w *workerRef, j *leaseJob) (*LeaseState, error) {
	body, err := json.Marshal(j.req)
	if err != nil {
		return nil, err
	}
	st, status, err := co.leaseCall(ctx, w, j, http.MethodPost, w.url+PathLease, body)
	switch {
	case err != nil:
		return nil, err
	case status != http.StatusOK && status != http.StatusAccepted:
		return st, fmt.Errorf("fabric: %s refused lease %s: %d %s", w.url, j.req.ID, status, st.Error)
	}
	return st, nil
}

// poll reads a lease's state; a 404 means the worker no longer holds it.
func (co *Coordinator) poll(ctx context.Context, w *workerRef, j *leaseJob) (*LeaseState, error) {
	id := j.req.ID
	st, status, err := co.leaseCall(ctx, w, j, http.MethodGet, w.url+PathLease+"/"+id, nil)
	switch {
	case status == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s on %s", errLeaseLost, id, w.url)
	case err != nil:
		return nil, err
	case status != http.StatusOK:
		return nil, fmt.Errorf("fabric: poll %s on %s: status %d", id, w.url, status)
	}
	return st, nil
}

// release best-effort cancels a lease the coordinator is abandoning, so
// the worker stops burning cores on work nobody will collect. Uses a
// short detached context: release must work even while ctx is tearing
// down (SIGINT drain).
func (co *Coordinator) release(w *workerRef, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), detachedTimeout)
	defer cancel()
	_, _ = wire.Do(ctx, co.client, http.MethodDelete, w.url+PathLease+"/"+id, nil, nil, wire.Limit(maxResponseBytes))
}

// probe health-checks a worker (used to reinstate quarantined workers).
func (co *Coordinator) probe(ctx context.Context, w *workerRef) bool {
	ctx, cancel := context.WithTimeout(ctx, detachedTimeout)
	defer cancel()
	resp, err := wire.Do(ctx, co.client, http.MethodGet, w.url+PathHealth, nil, nil, wire.Limit(maxResponseBytes))
	return err == nil && resp.Status == http.StatusOK
}

// pickWorker returns the next healthy worker in round-robin order, nil
// when the whole fleet is quarantined (the caller then degrades to
// in-process execution). A worker whose quarantine has lapsed must pass
// a health probe before it is reinstated.
func (co *Coordinator) pickWorker(ctx context.Context) *workerRef {
	n := len(co.workers)
	if n == 0 {
		return nil
	}
	start := int(co.rr.Add(1))
	for k := 0; k < n; k++ {
		w := co.workers[(start+k)%n]
		w.mu.Lock()
		until := w.quarantinedUntil
		w.mu.Unlock()
		switch {
		case until.IsZero() || time.Now().After(until):
			if !until.IsZero() {
				// Quarantine lapsed: only a passing health check clears it.
				if !co.probe(ctx, w) {
					co.quarantine(w)
					continue
				}
				w.mu.Lock()
				w.fails = 0
				w.quarantinedUntil = time.Time{}
				w.mu.Unlock()
				co.updateQuarantinedGauge()
			}
			return w
		default:
			continue
		}
	}
	return nil
}

func (co *Coordinator) noteSuccess(w *workerRef) {
	w.mu.Lock()
	w.fails = 0
	w.mu.Unlock()
}

func (co *Coordinator) noteFailure(w *workerRef) {
	w.mu.Lock()
	w.fails++
	hit := w.fails >= co.cfg.QuarantineAfter
	w.mu.Unlock()
	if hit {
		co.quarantine(w)
	}
}

func (co *Coordinator) quarantine(w *workerRef) {
	w.mu.Lock()
	w.quarantinedUntil = time.Now().Add(co.cfg.QuarantineFor)
	w.fails = 0
	w.mu.Unlock()
	obsQuarantines.Add(1)
	obs.LogEvent(obs.Event{Type: "worker.quarantined", Worker: w.url})
	co.updateQuarantinedGauge()
}

func (co *Coordinator) updateQuarantinedGauge() {
	now := time.Now()
	n := 0
	for _, w := range co.workers {
		w.mu.Lock()
		if w.quarantinedUntil.After(now) {
			n++
		}
		w.mu.Unlock()
	}
	obsQuarantined.Set(int64(n))
}

// startFleetScrape begins scraping every worker's /fabric/v1/obs
// snapshot into the merged mbavf_fleet_* series on the scrape interval.
// The returned stop function halts the loop and takes one final scrape
// with a short detached context, so tallies a worker posted between the
// last tick and its death still land in the merged page. The whole
// machinery is gated on the obs layer: a metrics-off run starts no
// goroutine and sends no requests.
func (co *Coordinator) startFleetScrape(ctx context.Context) (stop func()) {
	if !obs.Enabled() || len(co.workers) == 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(co.cfg.ObsScrapeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				co.scrapeFleet(ctx)
			case <-ctx.Done():
				return
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		final, cancel := context.WithTimeout(context.Background(), detachedTimeout)
		defer cancel()
		co.scrapeFleet(final)
	}
}

// scrapeFleet pulls one registry snapshot from every worker. Workers
// that do not answer keep their previously published snapshot — a dead
// worker's tallies still happened, so the aggregated series never
// regress.
func (co *Coordinator) scrapeFleet(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range co.workers {
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			if snap, err := co.scrapeObs(ctx, w); err == nil {
				obs.PublishFleet(w.url, snap)
			}
		}(w)
	}
	wg.Wait()
}

// scrapeObs fetches one worker's /fabric/v1/obs registry snapshot.
func (co *Coordinator) scrapeObs(ctx context.Context, w *workerRef) (obs.RegistrySnapshot, error) {
	var snap obs.RegistrySnapshot
	resp, err := wire.Do(ctx, co.client, http.MethodGet, w.url+PathObs, nil, nil, wire.Limit(maxResponseBytes))
	if err != nil {
		return snap, err
	}
	if resp.Status != http.StatusOK {
		return snap, fmt.Errorf("fabric: obs scrape of %s: status %d", w.url, resp.Status)
	}
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		return snap, fmt.Errorf("fabric: decoding obs snapshot from %s: %w", w.url, err)
	}
	return snap, nil
}
