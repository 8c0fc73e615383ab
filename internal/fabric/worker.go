package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"mbavf/internal/inject"
	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/wire"
	"mbavf/internal/workloads"
)

// Worker-side observability; /metrics exposes them as
// mbavf_fabric_worker_*.
var (
	obsWLeaseAccepted = obs.NewCounter("fabric.worker.leases_accepted")
	obsWLeaseDone     = obs.NewCounter("fabric.worker.leases_done")
	obsWLeaseFailed   = obs.NewCounter("fabric.worker.leases_failed")
	obsWLeaseExpired  = obs.NewCounter("fabric.worker.leases_expired")
	obsWLeaseActive   = obs.NewGauge("fabric.worker.leases_active")
)

// AVFEvaluator answers one AVF query with an opaque JSON document. The
// serving layer provides one backed by its cached analysis stack; the
// fabric itself never interprets the payload.
type AVFEvaluator func(ctx context.Context, q AVFQuery) (json.RawMessage, error)

// CampaignResolver builds (or returns a cached) injection campaign for a
// workload name. The default resolver uses the registered workload set
// under the standard injection config; tests substitute synthetic
// workloads.
type CampaignResolver func(workload string) (*inject.Campaign, error)

func defaultResolver(workload string) (*inject.Campaign, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	return inject.NewCampaign(w, sim.InjectionConfig())
}

// WorkerConfig tunes a fabric worker.
type WorkerConfig struct {
	// LeaseTTL is the garbage-collection horizon: a lease not polled for
	// this long is cancelled and dropped, so an orphaned lease (its
	// coordinator crashed) never burns cores forever (default 2m).
	LeaseTTL time.Duration
	// ShotDelay throttles every shot by this much — a chaos/testing knob
	// that makes "worker killed mid-lease" scenarios deterministic in
	// smoke tests. Zero (the default) adds nothing.
	ShotDelay time.Duration
	// Campaigns resolves workload names to campaigns (default: the
	// registered workload set under the injection config).
	Campaigns CampaignResolver
	// AVF, when non-nil, lets the worker execute KindAVF leases.
	AVF AVFEvaluator
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Minute
	}
	if c.Campaigns == nil {
		c.Campaigns = defaultResolver
	}
	return c
}

// Worker executes leases. Mount its handlers on any mux (the analysis
// service's, a dedicated listener) and Close it on shutdown.
type Worker struct {
	cfg  WorkerConfig
	base context.Context
	stop context.CancelFunc

	mu        sync.Mutex
	leases    map[string]*workerLease
	campaigns map[string]*campaignEntry
}

// campaignEntry memoizes one workload's campaign: the golden run is
// seconds-scale, so concurrent leases for one workload must pay it once.
type campaignEntry struct {
	once sync.Once
	c    *inject.Campaign
	err  error
}

// workerLease is one lease's mutable state. trace is the campaign trace
// ID propagated by the coordinator (HeaderTraceID); the worker's async
// trace events carry it so a merged fleet trace nests this lease's
// execution under the coordinator's campaign span.
type workerLease struct {
	req    LeaseRequest
	trace  string
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	completed int
	shots     []inject.Shot
	items     []AVFItem
	errMsg    string
	fatal     bool
	lastPoll  time.Time
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	base, stop := context.WithCancel(context.Background())
	return &Worker{
		cfg:       cfg.withDefaults(),
		base:      base,
		stop:      stop,
		leases:    map[string]*workerLease{},
		campaigns: map[string]*campaignEntry{},
	}
}

// Mount registers the fabric endpoints on mux, including the
// observability pair: the registry snapshot the coordinator scrapes
// into mbavf_fleet_* and this process's structured event log.
func (w *Worker) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathLease, w.handleCreate)
	mux.HandleFunc("GET "+PathLease+"/{id}", w.handleGet)
	mux.HandleFunc("DELETE "+PathLease+"/{id}", w.handleDelete)
	mux.HandleFunc("GET "+PathHealth, w.handleHealth)
	mux.Handle("GET "+PathObs, obs.SnapshotHandler())
	mux.Handle("GET "+PathEvents, obs.EventsHandler())
}

// Close cancels every lease and stops accepting work.
func (w *Worker) Close() {
	w.stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, l := range w.leases {
		l.cancel()
		delete(w.leases, id)
	}
	obsWLeaseActive.Set(0)
}

// campaign returns the memoized campaign for a workload.
func (w *Worker) campaign(name string) (*inject.Campaign, error) {
	w.mu.Lock()
	e, ok := w.campaigns[name]
	if !ok {
		e = &campaignEntry{}
		w.campaigns[name] = e
	}
	w.mu.Unlock()
	e.once.Do(func() { e.c, e.err = w.cfg.Campaigns(name) })
	return e.c, e.err
}

// sweep garbage-collects leases whose coordinator stopped polling.
// Called on every request, so the worker needs no background janitor.
func (w *Worker) sweep() {
	cutoff := time.Now().Add(-w.cfg.LeaseTTL)
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, l := range w.leases {
		l.mu.Lock()
		stale := l.lastPoll.Before(cutoff)
		l.mu.Unlock()
		if stale {
			l.cancel()
			delete(w.leases, id)
			obsWLeaseExpired.Add(1)
			obs.LogEvent(obs.Event{Type: "lease.gc", Campaign: l.trace, Lease: id})
		}
	}
	obsWLeaseActive.Set(int64(len(w.leases)))
}

// maxLeaseBytes caps a lease request body; a lease of a full 256-query
// AVF batch is under 40 KB.
const maxLeaseBytes = 1 << 20

func (w *Worker) handleCreate(rw http.ResponseWriter, r *http.Request) {
	w.sweep()
	var req LeaseRequest
	if err := wire.DecodeJSON(rw, r, maxLeaseBytes, &req); err != nil {
		// A body damaged in transit is the one refusal a re-sent copy
		// can cure.
		var be *wire.BodyError
		errors.As(err, &be)
		wire.WriteJSON(rw, be.Status, LeaseState{Error: "decoding lease: " + err.Error(), Fatal: !errors.Is(err, wire.ErrChecksum)})
		return
	}
	if err := req.Validate(); err != nil {
		wire.WriteJSON(rw, http.StatusBadRequest, LeaseState{ID: req.ID, Error: err.Error(), Fatal: true})
		return
	}
	if req.Kind == KindAVF && w.cfg.AVF == nil {
		wire.WriteJSON(rw, http.StatusBadRequest, LeaseState{ID: req.ID, Error: "fabric: worker has no AVF evaluator", Fatal: true})
		return
	}
	if w.base.Err() != nil {
		wire.WriteJSON(rw, http.StatusServiceUnavailable, LeaseState{ID: req.ID, Error: "fabric: worker shutting down"})
		return
	}

	w.mu.Lock()
	if l, ok := w.leases[req.ID]; ok {
		// Idempotent re-attach: the coordinator's first POST response was
		// lost, or a restarted coordinator re-dispatched a lease this
		// worker still holds. Either way the work must not run twice.
		w.mu.Unlock()
		wire.WriteJSON(rw, http.StatusOK, l.snapshot())
		return
	}
	ctx, cancel := context.WithCancel(w.base)
	l := &workerLease{req: req, trace: r.Header.Get(HeaderTraceID), cancel: cancel, state: LeaseRunning, lastPoll: time.Now()}
	w.leases[req.ID] = l
	obsWLeaseActive.Set(int64(len(w.leases)))
	w.mu.Unlock()
	obsWLeaseAccepted.Add(1)
	obs.LogEvent(obs.Event{Type: "lease.accepted", Campaign: l.trace, Lease: req.ID, N: req.total()})
	// The async begin is recorded at accept, not completion, so a worker
	// killed mid-lease still leaves evidence of the lease in its trace.
	obs.TraceAsyncBegin("campaign", "lease "+req.ID, l.trace)

	go w.execute(ctx, l)
	wire.WriteJSON(rw, http.StatusAccepted, l.snapshot())
}

func (w *Worker) handleGet(rw http.ResponseWriter, r *http.Request) {
	w.sweep()
	w.mu.Lock()
	l, ok := w.leases[r.PathValue("id")]
	w.mu.Unlock()
	if !ok {
		wire.WriteJSON(rw, http.StatusNotFound, LeaseState{ID: r.PathValue("id"), Error: "fabric: unknown lease"})
		return
	}
	l.mu.Lock()
	l.lastPoll = time.Now() // the heartbeat that keeps the lease alive
	st := l.snapshotLocked()
	l.mu.Unlock()
	wire.WriteJSON(rw, http.StatusOK, st)
}

func (w *Worker) handleDelete(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	l, ok := w.leases[id]
	if ok {
		l.cancel()
		delete(w.leases, id)
	}
	obsWLeaseActive.Set(int64(len(w.leases)))
	w.mu.Unlock()
	if !ok {
		wire.WriteJSON(rw, http.StatusNotFound, LeaseState{ID: id, Error: "fabric: unknown lease"})
		return
	}
	wire.WriteJSON(rw, http.StatusOK, LeaseState{ID: id, State: LeaseFailed, Error: "fabric: lease released"})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, _ *http.Request) {
	w.sweep()
	w.mu.Lock()
	n := len(w.leases)
	w.mu.Unlock()
	wire.WriteJSON(rw, http.StatusOK, Health{Status: "ok", Leases: n})
}

func (l *workerLease) snapshot() LeaseState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

func (l *workerLease) snapshotLocked() LeaseState {
	st := LeaseState{
		ID:        l.req.ID,
		State:     l.state,
		Completed: l.completed,
		Total:     l.req.total(),
		Error:     l.errMsg,
		Fatal:     l.fatal,
	}
	if l.state == LeaseDone {
		st.Shots = l.shots
		st.Items = l.items
	}
	return st
}

// fail records a terminal failure.
func (l *workerLease) fail(err error, fatal bool) {
	l.mu.Lock()
	l.state = LeaseFailed
	l.errMsg = err.Error()
	l.fatal = fatal
	l.mu.Unlock()
	obsWLeaseFailed.Add(1)
	obs.LogEvent(obs.Event{Type: "lease.failed", Campaign: l.trace, Lease: l.req.ID, Note: err.Error()})
}

// execute runs a lease to completion (or cancellation) on its own
// goroutine. The span and async end bracket the actual execution, so
// the worker's trace shows both its own timeline row (the "X" span) and
// the campaign-correlated async lifecycle.
func (w *Worker) execute(ctx context.Context, l *workerLease) {
	began := time.Now()
	sp := obs.StartSpan2("lease:", l.req.ID)
	defer func() {
		sp.End()
		obs.TraceAsyncEnd("campaign", "lease "+l.req.ID, l.trace)
		l.mu.Lock()
		state, completed := l.state, l.completed
		l.mu.Unlock()
		if state == LeaseDone {
			obs.LogEvent(obs.Event{Type: "lease.done", Campaign: l.trace, Lease: l.req.ID,
				DurNS: int64(time.Since(began)), N: completed})
		}
	}()
	switch l.req.Kind {
	case KindShots:
		w.executeShots(ctx, l)
	case KindAVF:
		w.executeAVF(ctx, l)
	}
}

// executeShots runs the lease's shot range on the campaign pool with
// GOMAXPROCS goroutines. Every shot depends only on (seed, index), so
// the pool's schedule cannot affect the result.
func (w *Worker) executeShots(ctx context.Context, l *workerLease) {
	c, err := w.campaign(l.req.Workload)
	if err != nil {
		l.fail(err, false)
		return
	}
	if l.req.Golden != "" && l.req.Golden != inject.GoldenDigest(c.Golden()) {
		l.fail(errGoldenMismatch(l.req.Workload), true)
		return
	}

	shot := func(i int) inject.Shot {
		if w.cfg.ShotDelay > 0 {
			select {
			case <-time.After(w.cfg.ShotDelay):
			case <-ctx.Done():
			}
		}
		return c.RunShot(l.req.Seed, i)
	}
	shots := make(chan inject.Shot)
	go func() {
		inject.Pool(ctx, []inject.Span{{Start: l.req.Start, End: l.req.End}}, runtime.GOMAXPROCS(0), shot, shots)
		close(shots)
	}()
	out := make([]inject.Shot, 0, l.req.End-l.req.Start)
	for s := range shots {
		out = append(out, s)
		l.mu.Lock()
		l.completed++
		l.mu.Unlock()
	}
	if ctx.Err() != nil {
		l.fail(ctx.Err(), false)
		return
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })

	l.mu.Lock()
	l.shots = out
	l.state = LeaseDone
	l.mu.Unlock()
	obsWLeaseDone.Add(1)
}

// executeAVF evaluates the lease's query batch serially (each query is
// itself parallelized by the analysis stack underneath).
func (w *Worker) executeAVF(ctx context.Context, l *workerLease) {
	items := make([]AVFItem, 0, len(l.req.Queries))
	for _, q := range l.req.Queries {
		if ctx.Err() != nil {
			l.fail(ctx.Err(), false)
			return
		}
		res, err := w.cfg.AVF(ctx, q)
		if err != nil {
			items = append(items, AVFItem{Error: err.Error()})
		} else {
			items = append(items, AVFItem{Result: res})
		}
		l.mu.Lock()
		l.completed++
		l.mu.Unlock()
	}
	l.mu.Lock()
	l.items = items
	l.state = LeaseDone
	l.mu.Unlock()
	obsWLeaseDone.Add(1)
}
