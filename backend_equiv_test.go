package mbavf

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"mbavf/internal/store"
	"mbavf/internal/store/disk"
	"mbavf/internal/store/httpstore"
	"mbavf/internal/store/mem"
)

// equivBackends builds one of each backend kind: the disk store, the
// in-memory test double in both eager and ranged flavors, and an HTTP
// client over a real (httptest) artifact server. Every run-store
// behavior must be identical across all of them.
func equivBackends(t *testing.T) map[string]store.Backend {
	t.Helper()
	db, err := disk.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	httpstore.NewServer(mem.New()).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return map[string]store.Backend{
		"disk":       db,
		"mem":        mem.New(),
		"mem-ranged": mem.NewRanged(),
		"http":       httpstore.New(srv.URL),
	}
}

// TestBackendEquivalence proves the pluggable-backend contract at the
// public API: a run recorded through NewRunStore over ANY backend —
// local directory, in-memory map, eager or ranged, or the HTTP artifact
// protocol over a real server — analyzes bit-identically (==) to the
// directly simulated run. The ranged backends additionally exercise the
// lazy per-section fetch path end to end.
func TestBackendEquivalence(t *testing.T) {
	direct, err := RunWorkloadContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range equivBackends(t) {
		t.Run(name, func(t *testing.T) {
			rs := NewRunStore(b)
			if err := rs.SaveContext(context.Background(), "vecadd", direct); err != nil {
				t.Fatalf("Save over %s: %v", name, err)
			}
			loaded, err := rs.LoadContext(context.Background(), "vecadd")
			if err != nil {
				t.Fatalf("Load over %s: %v", name, err)
			}
			if loaded.Workload() != direct.Workload() || loaded.Cycles() != direct.Cycles() ||
				loaded.Instructions() != direct.Instructions() {
				t.Fatalf("metadata differs over %s", name)
			}
			for _, st := range Structures() {
				il := Interleaving{Style: st.Styles()[0], Factor: 2}
				for _, scheme := range []Scheme{Parity, SECDED} {
					want, werr := direct.AVF(st, scheme, il, 1)
					got, gerr := loaded.AVF(st, scheme, il, 1)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s %s: error mismatch: %v vs %v", st, scheme, werr, gerr)
					}
					if want != got {
						t.Errorf("%s %s: AVF differs over %s:\n direct %+v\n stored %+v",
							st, scheme, name, want, got)
					}
				}
			}
		})
	}
}

// TestRunWorkloadStoredForAcrossBackends covers RunWorkloadStored with a
// structure to preload, over every backend: the first call simulates and
// records, the second answers from the store with the requested
// structure already decoded (which, over a ranged backend, is what
// forces the remote section fetch while the fallback machinery is still
// in scope).
func TestRunWorkloadStoredForAcrossBackends(t *testing.T) {
	ctx := context.Background()
	for name, b := range equivBackends(t) {
		t.Run(name, func(t *testing.T) {
			rs := NewRunStore(b)
			r1, fromStore, err := RunWorkloadStored(ctx, "vecadd", rs, L1)
			if err != nil {
				t.Fatal(err)
			}
			if fromStore {
				t.Error("first call reported a store hit")
			}
			r2, fromStore, err := RunWorkloadStored(ctx, "vecadd", rs, L1)
			if err != nil {
				t.Fatal(err)
			}
			if !fromStore {
				t.Error("second call simulated despite a recorded artifact")
			}
			il := Interleaving{Style: StyleLogical, Factor: 2}
			want, err := r1.AVF(L1, Parity, il, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r2.AVF(L1, Parity, il, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Errorf("stored AVF differs over %s: %+v vs %+v", name, want, got)
			}
		})
	}
}
