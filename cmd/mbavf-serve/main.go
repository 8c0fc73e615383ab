// Command mbavf-serve runs the MB-AVF analysis service: an HTTP/JSON API
// over the simulator that caches completed workload runs, deduplicates
// concurrent identical queries down to a single simulation, and executes
// fault-injection campaigns and paper experiments as pollable
// asynchronous jobs.
//
//	mbavf-serve -addr :8080
//	curl 'localhost:8080/api/v1/avf?workload=vecadd&structure=l1&scheme=sec-ded&style=logical&factor=4&mode=4'
//
// On SIGINT/SIGTERM the server drains: new requests get 503 (so health
// checks fail and load balancers stop routing), queued jobs are shed,
// and in-flight work gets -drain-timeout to finish before being
// cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mbavf"
	"mbavf/internal/obs"
	"mbavf/internal/serve"
	"mbavf/internal/store"
	"mbavf/internal/store/httpstore"
)

// splitPeers parses the -fabric-workers list, dropping empty entries so
// a trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxSims      = flag.Int("max-sims", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		maxJobs      = flag.Int("max-jobs", 1, "max concurrent asynchronous jobs")
		runsCached   = flag.Int("runs-per-shard", 4, "cached runs per cache shard")
		reqTimeout   = flag.Duration("request-timeout", 5*time.Minute, "per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on shutdown")
		storeDir     = flag.String("store", "", "persistent run-artifact store directory (empty = memory-only caching)")
		storeURL     = flag.String("store-url", "", "base URL of a remote artifact server (another mbavf-serve with -store-serve); mutually exclusive with -store")
		storeServe   = flag.Bool("store-serve", true, "with -store, also serve the artifact store over HTTP (/store/v1/*) so other processes can share it")
		storeScrub   = flag.Duration("store-scrub", 0, "with -store, run background CRC scrubs and GC at this interval (0 = off)")
		storeMax     = flag.Int64("store-max-bytes", 0, "with -store-scrub, evict oldest artifacts once the store exceeds this many bytes (0 = unbounded)")
		worker       = flag.Bool("worker", false, "serve the distributed-campaign fabric worker endpoints (/fabric/v1/*)")
		fabricPeers  = flag.String("fabric-workers", "", "comma-separated worker base URLs; makes this server a fabric coordinator")
		shotDelay    = flag.Duration("fabric-shot-delay", 0, "throttle every fabric shot by this much (chaos/testing knob for straggler rehearsal; leave 0 in production)")
		metrics      = flag.Bool("metrics", false, "enable the observability layer (counters, events, fleet scraping) without tracing")
		tracePath    = flag.String("trace", "", "record a Chrome trace and write it here on drain/exit (implies -metrics)")
	)
	flag.Parse()

	role := "standalone"
	switch {
	case *worker && *fabricPeers != "":
		role = "worker+coordinator"
	case *worker:
		role = "worker"
	case *fabricPeers != "":
		role = "coordinator"
	}
	obs.SetProcessName(fmt.Sprintf("mbavf-serve %s %s", role, *addr))
	if *metrics || *tracePath != "" {
		obs.Enable()
	}
	if *tracePath != "" {
		obs.StartTrace()
	}
	writeTrace := func() {
		if *tracePath == "" {
			return
		}
		obs.StopTrace()
		if err := obs.WriteTrace(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "mbavf-serve: writing trace: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "mbavf-serve: trace written to %s\n", *tracePath)
	}

	var rs *mbavf.RunStore
	serveArtifacts := false
	switch {
	case *storeDir != "" && *storeURL != "":
		fmt.Fprintln(os.Stderr, "mbavf-serve: -store and -store-url are mutually exclusive")
		os.Exit(1)
	case *storeDir != "":
		var err error
		if rs, err = mbavf.OpenRunStore(*storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "mbavf-serve: opening store: %v\n", err)
			os.Exit(1)
		}
		serveArtifacts = *storeServe
		fmt.Fprintf(os.Stderr, "mbavf-serve: run-artifact store at %s\n", rs.Dir())
	case *storeURL != "":
		rs = mbavf.NewRunStore(httpstore.New(*storeURL))
		fmt.Fprintf(os.Stderr, "mbavf-serve: remote run-artifact store at %s\n", rs.Dir())
	}
	if rs != nil && *storeScrub > 0 {
		go rs.Maintain(context.Background(), store.MaintainConfig{
			Interval: *storeScrub,
			MaxBytes: *storeMax,
			Scrub:    true,
		})
	}

	s := serve.New(serve.Config{
		MaxSims:         *maxSims,
		MaxJobs:         *maxJobs,
		RunsPerShard:    *runsCached,
		RequestTimeout:  *reqTimeout,
		Store:           rs,
		ServeArtifacts:  serveArtifacts,
		FabricWorker:    *worker,
		FabricPeers:     splitPeers(*fabricPeers),
		FabricShotDelay: *shotDelay,
	})
	// ReadHeaderTimeout and ReadTimeout bound how long a client may take
	// to deliver a request (slow-loris defense); request bodies here are
	// small JSON documents, so 30s is generous. Response writing stays
	// unbounded — synchronous AVF queries legitimately compute for
	// minutes before the first byte.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mbavf-serve: listening on %s\n", *addr)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "mbavf-serve: %v\n", err)
		writeTrace()
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "mbavf-serve: draining (up to %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "mbavf-serve: shutdown: %v\n", err)
	}
	<-errCh // ListenAndServe has returned http.ErrServerClosed
	// The trace flushes on every drain path — including the SIGTERM a
	// smoke test sends to "kill" a worker — so a dying worker's lease
	// spans still make it into the merged fleet trace.
	writeTrace()
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "mbavf-serve: drain incomplete: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mbavf-serve: drained cleanly")
}
