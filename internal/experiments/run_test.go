package experiments

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"mbavf/internal/obs"
	"mbavf/internal/sim"
	"mbavf/internal/store"
)

// TestRunStoreTransientFailure: a store whose vecadd artifact path is a
// directory fails the load with EISDIR, which is neither a miss nor
// damage. run keeps RunWorkloadStored's rules for it: it retries once,
// answers by simulating, records nothing over the path, and counts one
// fallback simulation.
func TestRunStoreTransientFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path(store.KeyFor("vecadd", sim.DefaultConfig()))
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { store.RetryDelay = d }(store.RetryDelay)
	store.RetryDelay = time.Millisecond
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	obs.Reset()
	ResetCache("vecadd")
	defer ResetCache("vecadd")

	m, err := run(Options{StoreDir: dir}, "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload != "vecadd" || !m.Instrumented() {
		t.Fatalf("run answered workload %q, instrumented %v", m.Workload, m.Instrumented())
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Errorf("artifact path after the fallback: %v, %v; want the directory left as it was", fi, err)
	}
	if n := obs.Counters()["store.fallback_simulations"]; n != 1 {
		t.Errorf("store.fallback_simulations = %d, want 1", n)
	}
}

// TestCachesizeHonorsContext: cachesize simulates its own machine
// configurations, so a cancelled experiment context must stop them.
func TestCachesizeHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := ByName("cachesize")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Workloads = []string{"vecadd"}
	o.Context = ctx
	if _, err := e.Run(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("cachesize under a cancelled context: err = %v, want context.Canceled", err)
	}
}
