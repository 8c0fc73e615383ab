// Package fabric is the distributed campaign fabric: a coordinator that
// shards fault-injection campaigns and AVF query batches into leased
// work units dispatched to a worker fleet over HTTP/JSON, and the worker
// side that executes those leases.
//
// Distribution here is first and foremost a robustness problem — workers
// die, stall, and return garbage — so the fabric is built around one
// invariant: a sharded campaign is bit-identical to a serial run no
// matter the worker count or the failure/re-dispatch history. The
// invariant holds because every shot's injection target depends only on
// (campaign seed, shot index) through the splitmix64 per-shot RNG (see
// internal/inject), which makes re-executing a shot anywhere — a second
// worker after a steal, the coordinator itself after total fleet loss —
// produce the identical Shot value. The coordinator therefore never has
// to trust a worker's scheduling, only its arithmetic, and the body
// checksum every lease request and response carries (wire.ChecksumHeader)
// guards the wire in between.
//
// Lease lifecycle:
//
//	POST   /fabric/v1/lease        create (idempotent by lease ID)
//	GET    /fabric/v1/lease/{id}   poll; doubles as the heartbeat that
//	                               renews the coordinator-side deadline
//	                               and the worker-side GC horizon
//	DELETE /fabric/v1/lease/{id}   cancel/release
//	GET    /fabric/v1/health       worker liveness + lease census
//
// A lease the coordinator stops polling is garbage-collected by the
// worker after its TTL, so an orphaned lease (coordinator crash) never
// burns a core forever; a lease the worker stops answering for is
// re-dispatched by the coordinator (work-stealing), and duplicate
// results reconcile idempotently because they are — by construction —
// identical.
package fabric

import (
	"encoding/json"
	"fmt"

	"mbavf/internal/inject"
)

// Endpoint paths of the fabric wire protocol. Workers mount them with
// Worker.Mount; coordinators address them relative to a worker base URL.
const (
	PathLease  = "/fabric/v1/lease"
	PathHealth = "/fabric/v1/health"
	// PathObs serves the worker's metric-registry snapshot (counters,
	// gauges, sparse histograms) as JSON; the coordinator scrapes it on
	// the heartbeat tick and folds the fleet into mbavf_fleet_* series.
	PathObs = "/fabric/v1/obs"
	// PathEvents serves the process's recent structured lease-lifecycle
	// events as JSON.
	PathEvents = "/fabric/v1/events"
)

// Trace-propagation headers. The coordinator stamps every lease request
// with the campaign's trace ID, the lease ID, and its own span name, so
// a worker's trace events correlate with the coordinator's in a merged
// fleet trace without any shared clock or state.
const (
	HeaderTraceID    = "X-Mbavf-Trace-Id"
	HeaderLeaseID    = "X-Mbavf-Lease-Id"
	HeaderParentSpan = "X-Mbavf-Parent-Span"
)

// Kind discriminates the work a lease carries.
type Kind string

const (
	// KindShots is a contiguous shot-range [Start, End) of a
	// fault-injection campaign.
	KindShots Kind = "shots"
	// KindAVF is a batch of AVF queries evaluated by the worker's
	// analysis stack.
	KindAVF Kind = "avf"
)

// AVFQuery names one point of the AVF query space, the fabric's own wire
// form (the serving layer adapts it to its richer query type).
type AVFQuery struct {
	Workload  string `json:"workload"`
	Structure string `json:"structure"`
	Scheme    string `json:"scheme"`
	Style     string `json:"style"`
	Factor    int    `json:"factor"`
	ModeBits  int    `json:"mode_bits"`
}

// AVFItem is one evaluated AVF query: an opaque result document (the
// fabric does not interpret analysis payloads) or a per-item error.
type AVFItem struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// LeaseRequest creates (or idempotently re-attaches to) a lease.
// Re-POSTing an ID the worker already holds returns the existing lease's
// state without re-executing anything — the property that makes
// coordinator retries after a lost response safe.
type LeaseRequest struct {
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`

	// Shot-range leases (KindShots).
	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Start    int    `json:"start,omitempty"`
	End      int    `json:"end,omitempty"`
	// Golden, when non-empty, is the hex SHA-256 of the campaign's
	// golden output; the worker refuses the lease if its own golden run
	// disagrees (version skew would silently poison results otherwise).
	Golden string `json:"golden,omitempty"`

	// AVF batch leases (KindAVF).
	Queries []AVFQuery `json:"queries,omitempty"`
}

// Lease states.
const (
	LeaseRunning = "running"
	LeaseDone    = "done"
	LeaseFailed  = "failed"
)

// LeaseState is the worker's view of a lease: the poll (heartbeat)
// response, carrying the result payload once done.
type LeaseState struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`

	Shots []inject.Shot `json:"shots,omitempty"`
	Items []AVFItem     `json:"items,omitempty"`

	Error string `json:"error,omitempty"`
	// Fatal marks a failure retrying elsewhere cannot fix (golden
	// digest mismatch, malformed lease); the coordinator skips straight
	// to local execution instead of burning attempts.
	Fatal bool `json:"fatal,omitempty"`
}

// Health is the worker liveness document.
type Health struct {
	Status string `json:"status"`
	Leases int    `json:"leases"`
}

// maxLeaseShots bounds one shot lease's range: a worker sizes the
// lease's result buffer from it, so an unbounded range from the wire
// could ask for any allocation. The coordinator never shards larger.
const maxLeaseShots = 1 << 16

// Validate rejects malformed lease requests before any work happens.
func (r LeaseRequest) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("fabric: lease without an ID")
	}
	switch r.Kind {
	case KindShots:
		if r.Workload == "" {
			return fmt.Errorf("fabric: shot lease %s without a workload", r.ID)
		}
		if r.Start < 0 || r.End <= r.Start {
			return fmt.Errorf("fabric: shot lease %s has empty range [%d,%d)", r.ID, r.Start, r.End)
		}
		if r.End-r.Start > maxLeaseShots {
			return fmt.Errorf("fabric: shot lease %s spans %d shots, more than the %d a lease may hold",
				r.ID, r.End-r.Start, maxLeaseShots)
		}
	case KindAVF:
		if len(r.Queries) == 0 {
			return fmt.Errorf("fabric: AVF lease %s without queries", r.ID)
		}
	default:
		return fmt.Errorf("fabric: lease %s has unknown kind %q", r.ID, r.Kind)
	}
	return nil
}

// total returns the lease's work-unit count, the denominator of its
// progress reporting.
func (r LeaseRequest) total() int {
	if r.Kind == KindAVF {
		return len(r.Queries)
	}
	return r.End - r.Start
}
