package serve

import (
	"context"
	"encoding/json"
	"net/http"

	"mbavf"
	"mbavf/internal/fabric"
	"mbavf/internal/obs"
)

// evaluateAVF adapts the server's cached AVF query path to the fabric's
// opaque evaluator shape. It backs both roles: as a worker it answers
// KindAVF leases from the coordinator, and as a coordinator it is the
// in-process fallback when the fleet is unreachable.
func (s *Server) evaluateAVF(ctx context.Context, q fabric.AVFQuery) (json.RawMessage, error) {
	resp, err := s.queryAVF(ctx, AVFQuery(q))
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// mountFabric adds the worker endpoints to the route table when this
// server is part of a fleet. The fabric handlers bypass the request
// middleware deliberately: a draining coordinator must still be able to
// poll (and release) leases it already dispatched here. The
// observability pair (/fabric/v1/obs, /fabric/v1/events) is mounted in
// every fleet role: Worker.Mount covers the worker case, and a
// coordinator-only server mounts them here so its own registry and
// event log are scrapeable too.
func (s *Server) mountFabric(mux *http.ServeMux) {
	if s.worker != nil {
		s.worker.Mount(mux)
		return
	}
	if s.coord != nil {
		mux.Handle("GET "+fabric.PathObs, obs.SnapshotHandler())
		mux.Handle("GET "+fabric.PathEvents, obs.EventsHandler())
	}
}

// batchDistributed shards a validated AVF batch across the fleet through
// the coordinator, preserving order. Per-item errors come back as items;
// only a total dispatch failure is returned as an error.
func (s *Server) batchDistributed(ctx context.Context, queries []AVFQuery) ([]BatchItem, error) {
	fq := make([]fabric.AVFQuery, len(queries))
	for i, q := range queries {
		fq[i] = fabric.AVFQuery(q)
	}
	fitems, err := s.coord.RunAVFBatch(ctx, fq)
	if err != nil {
		return nil, err
	}
	items := make([]BatchItem, len(fitems))
	for i, it := range fitems {
		if it.Error != "" {
			items[i].Error = it.Error
			continue
		}
		var resp AVFResponse
		if derr := json.Unmarshal(it.Result, &resp); derr != nil {
			items[i].Error = "decoding fabric result: " + derr.Error()
			continue
		}
		items[i].Result = &resp
	}
	return items, nil
}

// fabricOptions returns the distributed-execution options injection jobs
// should run under, nil when this server is not a coordinator.
func (s *Server) fabricOptions() *mbavf.FabricOptions {
	if s.coord == nil {
		return nil
	}
	return &mbavf.FabricOptions{Workers: s.cfg.FabricPeers}
}
