package mbavf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mbavf/internal/store"
)

// storedMinife records the shared minife run into a fresh store and
// loads it back — the rehydration path every equivalence check exercises.
func storedMinife(t *testing.T) (direct, stored *Run) {
	t.Helper()
	direct = minife(t)
	rs, err := OpenRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SaveContext(context.Background(), "minife", direct); err != nil {
		t.Fatal(err)
	}
	stored, err = rs.LoadContext(context.Background(), "minife")
	if err != nil {
		t.Fatal(err)
	}
	return direct, stored
}

// TestStoreEquivalence proves the store's core contract: every analysis
// over a store-rehydrated run is bit-identical (==, not tolerance-based)
// to the same analysis over the directly simulated run, across the full
// (structure, scheme, interleaving, factor, mode) matrix of the unified
// query API.
func TestStoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full analysis matrix; skipped in -short")
	}
	direct, stored := storedMinife(t)

	if direct.Workload() != stored.Workload() ||
		direct.Cycles() != stored.Cycles() ||
		direct.Instructions() != stored.Instructions() {
		t.Fatalf("metadata differs: direct (%s, %d, %d) vs stored (%s, %d, %d)",
			direct.Workload(), direct.Cycles(), direct.Instructions(),
			stored.Workload(), stored.Cycles(), stored.Instructions())
	}

	for _, st := range Structures() {
		for _, style := range st.Styles() {
			// Analyses are read-only over the shared trackers and graph
			// (the serving layer depends on that), so the matrix fans out.
			t.Run(string(st)+"/"+string(style), func(t *testing.T) {
				t.Parallel()
				factors := []int{1, 2}
				if st == L2 {
					// The L2 analyses dominate the matrix's runtime;
					// factor-1 equivalence is already covered by the other
					// structures, so the largest array checks factor 2 only.
					factors = []int{2}
				}
				for _, factor := range factors {
					il := Interleaving{Style: style, Factor: factor}
					for _, scheme := range Schemes() {
						for _, mode := range []int{1, 4} {
							want, werr := direct.AVF(st, scheme, il, mode)
							got, gerr := stored.AVF(st, scheme, il, mode)
							if (werr == nil) != (gerr == nil) {
								t.Fatalf("%s x%d mode %d: error mismatch: %v vs %v",
									scheme, factor, mode, werr, gerr)
							}
							if want != got {
								t.Errorf("%s x%d mode %d: AVF differs:\n direct %+v\n stored %+v",
									scheme, factor, mode, want, got)
							}
						}
					}
				}
			})
		}
	}
}

// TestStoreEquivalenceSER checks the FIT-weighted roll-up (8 analyses per
// call) and the windowed series stay bit-identical through the store.
func TestStoreEquivalenceSER(t *testing.T) {
	if testing.Short() {
		t.Skip("full analysis matrix; skipped in -short")
	}
	direct, stored := storedMinife(t)
	for _, st := range Structures() {
		il := Interleaving{Style: st.Styles()[0], Factor: 2}
		want, err := direct.SER(st, Parity, il)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stored.SER(st, Parity, il)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Errorf("%s SER differs: direct %+v stored %+v", st, want, got)
		}

		ws, err := direct.AVFSeries(st, SECDED, il, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := stored.AVFSeries(st, SECDED, il, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Window != gs.Window || ws.Total != gs.Total || len(ws.Windows) != len(gs.Windows) {
			t.Fatalf("%s series shape differs: direct %+v stored %+v", st, ws, gs)
		}
		for i := range ws.Windows {
			if ws.Windows[i] != gs.Windows[i] {
				t.Errorf("%s series window %d differs: direct %+v stored %+v",
					st, i, ws.Windows[i], gs.Windows[i])
			}
		}
	}
}

// sectionPayloadOffsets walks an artifact's framing (magic, version,
// then (id, uvarint length, payload, crc32) per section) and returns the
// midpoint offset of every section's payload.
func sectionPayloadOffsets(t *testing.T, data []byte) map[string]int {
	t.Helper()
	names := map[byte]string{1: "meta", 2: "l1", 3: "l2", 4: "vgpr", 5: "graph"}
	out := map[string]int{}
	off := 5 // "MBAV" + version byte
	for off < len(data) {
		id := data[off]
		off++
		plen, n := binary.Uvarint(data[off:])
		if n <= 0 {
			t.Fatalf("bad framing at offset %d", off)
		}
		off += n
		out[names[id]] = off + int(plen)/2
		off += int(plen) + 4 // payload + crc
	}
	if len(out) != 5 {
		t.Fatalf("walked %d sections, want 5: %v", len(out), out)
	}
	return out
}

// TestStoreCorruptionFallsBackToSimulation flips one byte in every
// section of a recorded artifact and checks the acceptance contract: the
// damaged artifact is rejected with a typed error and quarantined, and
// RunWorkloadStored transparently falls back to a fresh simulation.
func TestStoreCorruptionFallsBackToSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates once per section; skipped in -short")
	}
	r := minife(t)
	dir := t.TempDir()
	rs, err := OpenRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SaveContext(context.Background(), "minife", r); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.mbavf"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want 1 artifact, got %v (%v)", paths, err)
	}
	pristine, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}

	for name, off := range sectionPayloadOffsets(t, pristine) {
		t.Run(name, func(t *testing.T) {
			mut := append([]byte(nil), pristine...)
			mut[off] ^= 0x01
			if err := os.WriteFile(paths[0], mut, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := rs.LoadContext(context.Background(), "minife")
			if err == nil {
				t.Fatalf("Load accepted artifact with flipped byte in %s section", name)
			}
			if !errors.Is(err, store.ErrCorrupt) && !errors.Is(err, store.ErrFormat) {
				t.Fatalf("untyped corruption error: %v", err)
			}
			// The damaged file was quarantined; the fallback path simulates
			// and re-records a good artifact.
			got, fromStore, err := RunWorkloadStored(context.Background(), "minife", rs)
			if err != nil {
				t.Fatal(err)
			}
			if fromStore {
				t.Error("fromStore=true for a quarantined artifact")
			}
			if got.Cycles() != r.Cycles() {
				t.Errorf("fallback simulation differs: %d vs %d cycles", got.Cycles(), r.Cycles())
			}
			if again, err := rs.LoadContext(context.Background(), "minife"); err != nil || again.Cycles() != r.Cycles() {
				t.Errorf("re-recorded artifact unusable: %v", err)
			}
		})
	}
}

// TestStoreLazyConcurrentQueries exercises the lazily decoding load
// path under concurrent first-touch queries: each section sits behind
// its own lock inside the artifact, which keeps only a successful
// decode, so racing queries must neither decode twice nor observe
// partial state (this test is the race detector's coverage of that
// path — it stays enabled in -short).
func TestStoreLazyConcurrentQueries(t *testing.T) {
	rs, err := OpenRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunWorkloadContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SaveContext(context.Background(), "vecadd", direct); err != nil {
		t.Fatal(err)
	}
	loaded, err := rs.LoadContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		st Structure
		il Interleaving
	}{
		{L1, Interleaving{Style: StyleLogical, Factor: 1}},
		{L1, Interleaving{Style: StyleWayPhysical, Factor: 2}},
		{VGPR, Interleaving{Style: StyleIntraThread, Factor: 1}},
	}
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, werr := direct.AVF(q.st, Parity, q.il, 1)
			got, gerr := loaded.AVF(q.st, Parity, q.il, 1)
			if werr != nil || gerr != nil {
				t.Errorf("%s %s: %v / %v", q.st, q.il.Style, werr, gerr)
				return
			}
			if want != got {
				t.Errorf("%s %s: direct %+v stored %+v", q.st, q.il.Style, want, got)
			}
		}()
	}
	wg.Wait()
}

// TestRunPreload covers the warm-up path: Preload forces a store-loaded
// run's deferred decoding (and surfaces nothing for simulated runs).
func TestRunPreload(t *testing.T) {
	rs, err := OpenRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunWorkloadContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.Preload(); err != nil {
		t.Errorf("Preload on a simulated run: %v", err)
	}
	if err := rs.SaveContext(context.Background(), "vecadd", direct); err != nil {
		t.Fatal(err)
	}
	loaded, err := rs.LoadContext(context.Background(), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Preload(L1); err != nil {
		t.Errorf("Preload(L1): %v", err)
	}
	if err := loaded.Preload(); err != nil {
		t.Errorf("Preload(all): %v", err)
	}
	// A preloaded run must still round-trip through Save bit-identically.
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatalf("Save of store-loaded run: %v", err)
	}
	again, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cycles() != direct.Cycles() {
		t.Errorf("re-saved run differs: %d vs %d cycles", again.Cycles(), direct.Cycles())
	}
}

// TestRunWorkloadStoredRoundTrip covers the happy path: first call
// simulates and records, second call answers from the store.
func TestRunWorkloadStoredRoundTrip(t *testing.T) {
	rs, err := OpenRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Has(context.Background(), "minife") {
		t.Fatal("fresh store claims to hold minife")
	}
	r1, fromStore, err := RunWorkloadStored(context.Background(), "minife", rs)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Error("first call reported a store hit")
	}
	if !rs.Has(context.Background(), "minife") {
		t.Error("first call did not record")
	}
	r2, fromStore, err := RunWorkloadStored(context.Background(), "minife", rs)
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore {
		t.Error("second call simulated despite a recorded artifact")
	}
	if r1.Cycles() != r2.Cycles() || r1.Workload() != r2.Workload() {
		t.Errorf("stored run differs: (%s, %d) vs (%s, %d)",
			r1.Workload(), r1.Cycles(), r2.Workload(), r2.Cycles())
	}
}

// artifactDigests are the sha256 digests of store.EncodedBytes for every
// bundled workload recorded on the default machine config, by an amd64
// build (a platform that fuses the simulator's float multiply-adds may
// compute other values). They pin the whole record path, simulation
// through encoding: a change to what is recorded, in what order, or how
// it is encoded fails TestArtifactDigestsPinned. Regenerate them only
// with a deliberate format or simulator change.
var artifactDigests = map[string]string{
	"backprop":          "47784ac379728a0205762264e0dbbf5856ac1d3863ecb62fe81f90ecac4fee0f",
	"bitonicsort":       "15fc0a23ad492201861a49d08560735e7f3188583b7a0e71ff71d4a9974f5834",
	"comd":              "704bada2dea24e5ad4045744b07ed8426bd20b26d1364c806a8db679689da2c2",
	"dct":               "8f0ac398a1eb32076dc7da15c3d5b6ab18f0d68a1bd28e816dc714cbef6280f4",
	"dwthaar1d":         "580fcf4d8421599c9e1df0d94729df221fe280be2efbce72e5282033c0a2f51b",
	"fastwalsh":         "594a3c25f0437f6a1b193b70501a7f0ade0c1eeafd53bb2a9e5df0bb2f355ea4",
	"histogram":         "469c9c593596943d64a0b1b96aa69b83b005ffe22d4b3855e7cae9d3b59d9a73",
	"kmeans":            "c4b78c44d2d4300dd8dc487094297a34cedb8636370c7894aef4b40ddb920891",
	"matmul":            "7d1e741b12525fbffb51f4714063b359e7d2247d6b0bd1950458f81369b3c01b",
	"matrixtranspose":   "10ec121990c87670af9d4ea42b0edac68fd44e3e73fa10060e9b67c087eaf3e7",
	"minife":            "f71c2fad48bdc8e57f98d6496421e52fa6a4134bb85759c08d0fee62088e7de1",
	"nw":                "9fbebfeea80de792224f7521612ad9fc47ecf06ff7c299f381a75af381908345",
	"prefixsum":         "2f4fbea9bb089341fc835408bcb2a11900524a423e849a784174383a75b9bda2",
	"recursivegaussian": "91e20cd706977185d1da411d5072b805884de62e8e79f67815594f6c998edf0d",
	"reduction":         "de51ea2167d99a1d8af7e53cc1876a46c4088fd8b71fbb55dbec455e2cfe981d",
	"scanlargearrays":   "2d4888bb8c867442d5662bebbad556253a4557fd23267aed608840235b473d50",
	"srad":              "e4b45ec2c92e3f1dcf0cf2c24bbe2568432b4d8e72759f1e147cbe8aaee03bb6",
	"vecadd":            "65abb368aaabcde3b83bcb99ca726cc6a754b2fddab0cf48a78fdb1f9b56927a",
}

// TestArtifactDigestsPinned records every bundled workload and checks its
// encoded artifact byte-for-byte against the pinned digest (about 100 MB
// of artifacts in all).
func TestArtifactDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("records all 18 workloads; skipped in -short")
	}
	names := Workloads()
	if len(names) != len(artifactDigests) {
		t.Errorf("%d workloads, %d pinned digests", len(names), len(artifactDigests))
	}
	for _, name := range names {
		r, err := RunWorkloadContext(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := store.EncodedBytes(r.m)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := artifactDigests[name]
		if !ok {
			t.Errorf("%s: no pinned digest", name)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: artifact sha256 %s, pinned %s (%d bytes)", name, got, want, len(data))
		}
	}
}
