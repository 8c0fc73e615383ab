package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"mbavf/internal/wire"
)

// campaign is the live progress of the most recent injection campaign:
// the data behind the "mbavf_campaign" expvar and the shots/sec / ETA
// numbers an operator watches on a long run.
var campaign struct {
	total     atomic.Int64 // shots requested
	preseeded atomic.Int64 // shots restored from a checkpoint
	completed atomic.Int64 // shots finished (including preseeded)
	startNS   atomic.Int64 // UnixNano at campaign start (0 = none yet)
	name      atomic.Value // workload name (string)
}

// CampaignStart announces a campaign of total shots on the named
// workload, preseeded of which were restored from a checkpoint (they do
// not count toward the live rate).
func CampaignStart(workload string, total, preseeded int) {
	if !enabled.Load() {
		return
	}
	campaign.name.Store(workload)
	campaign.total.Store(int64(total))
	campaign.preseeded.Store(int64(preseeded))
	campaign.completed.Store(int64(preseeded))
	campaign.startNS.Store(time.Now().UnixNano())
}

// resetCampaign clears the live progress (part of Reset's lifecycle).
func resetCampaign() {
	campaign.total.Store(0)
	campaign.preseeded.Store(0)
	campaign.completed.Store(0)
	campaign.startNS.Store(0)
	campaign.name.Store("")
}

// CampaignShotDone records one completed shot.
func CampaignShotDone() {
	if !enabled.Load() {
		return
	}
	campaign.completed.Add(1)
}

// CampaignProgress is a point-in-time view of the running campaign.
type CampaignProgress struct {
	Workload  string  `json:"workload"`
	Total     int64   `json:"total"`
	Completed int64   `json:"completed"`
	ShotsPerS float64 `json:"shots_per_sec"`
	ETASec    float64 `json:"eta_sec"`
}

// Progress returns the current campaign progress. The rate counts only
// shots executed this session (checkpoint-restored shots are excluded),
// so the ETA stays honest across resumes.
func Progress() CampaignProgress {
	p := CampaignProgress{
		Total:     campaign.total.Load(),
		Completed: campaign.completed.Load(),
	}
	if n, ok := campaign.name.Load().(string); ok {
		p.Workload = n
	}
	startNS := campaign.startNS.Load()
	if startNS == 0 {
		return p
	}
	elapsed := time.Since(time.Unix(0, startNS)).Seconds()
	fresh := p.Completed - campaign.preseeded.Load()
	if elapsed > 0 && fresh > 0 {
		p.ShotsPerS = float64(fresh) / elapsed
		if remaining := p.Total - p.Completed; remaining > 0 {
			p.ETASec = float64(remaining) / p.ShotsPerS
		}
	}
	return p
}

// publishOnce guards the process-global expvar names (expvar panics on
// duplicate Publish).
var publishOnce sync.Once

func publishExpvars() {
	publishOnce.Do(func() {
		expvar.Publish("mbavf_counters", expvar.Func(func() any { return Counters() }))
		expvar.Publish("mbavf_gauges", expvar.Func(func() any { return Gauges() }))
		expvar.Publish("mbavf_campaign", expvar.Func(func() any { return Progress() }))
		expvar.Publish("mbavf_phases", expvar.Func(func() any {
			_, _, spans := Snapshot()
			out := make(map[string]float64, len(spans))
			for _, s := range spans {
				out[s.Name] = float64(s.Total) / float64(time.Millisecond)
			}
			return out
		}))
	})
}

// ServeDebug starts an HTTP debug server on addr (":0" picks a free
// port) exposing expvar at /debug/vars — including live mbavf_counters,
// mbavf_gauges, mbavf_phases, and mbavf_campaign (completed/total,
// shots/sec, ETA) — Prometheus text exposition at /metrics, and the full
// pprof suite at /debug/pprof/. It enables the layer, serves in a
// background goroutine, and returns the bound address.
func ServeDebug(addr string) (string, error) {
	Enable()
	publishExpvars()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle(PromHandlerPath, PromHandler())
	// The fabric observability endpoints, mounted here too so a plain
	// debug listener is scrapeable as a fleet member. The literals match
	// fabric.PathObs / fabric.PathEvents (fabric imports obs, not the
	// reverse).
	mux.Handle("/fabric/v1/obs", SnapshotHandler())
	mux.Handle("/fabric/v1/events", EventsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := wire.NewServer("", mux)
	go func() {
		// The server lives for the process; errors after shutdown are
		// expected and uninteresting.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}
