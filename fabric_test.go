package mbavf

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"mbavf/internal/fabric"
	"mbavf/internal/inject"
)

// startFabricWorker boots a production-configured fabric worker (the
// default campaign resolver over the real workload registry, exactly
// what `mbavf-serve -worker` runs) on an httptest server.
func startFabricWorker(t *testing.T) string {
	t.Helper()
	w := fabric.NewWorker(fabric.WorkerConfig{})
	mux := http.NewServeMux()
	w.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		w.Close()
	})
	return srv.URL
}

// TestRunCampaignDistributed runs the public campaign API against a
// two-worker fleet and checks the results and summary are bit-identical
// to the in-process run, and that checkpoint resume works unchanged on
// the distributed path.
func TestRunCampaignDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload campaign in -short mode")
	}
	c, err := NewInjectionCampaignContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 16, 3

	ref, refSum, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: n, Seed: seed, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	fab := &FabricOptions{Workers: []string{startFabricWorker(t), startFabricWorker(t)}, ShardSize: 3}
	dist, distSum, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: n, Seed: seed, Fabric: fab,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, dist) || refSum != distSum {
		t.Fatal("distributed campaign differs from in-process run")
	}

	// Checkpoint on the distributed path, truncate to simulate a crash,
	// resume distributed: still identical.
	path := filepath.Join(t.TempDir(), "vecadd.ckpt.json")
	if _, _, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: n, Seed: seed, CheckpointPath: path, CheckpointEvery: 4, Fabric: fab,
	}); err != nil {
		t.Fatal(err)
	}
	ck, err := inject.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Shots) != n {
		t.Fatalf("checkpoint holds %d/%d shots", len(ck.Shots), n)
	}
	ck.Shots = ck.Shots[:5]
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	resumed, resSum, err := c.RunCampaign(context.Background(), CampaignRunConfig{
		Injections: n, Seed: seed, CheckpointPath: path, Resume: true, Fabric: fab,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, resumed) || refSum != resSum {
		t.Fatal("distributed resumed campaign differs from uninterrupted run")
	}
}
