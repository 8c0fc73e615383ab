package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mbavf/internal/sim"
	"mbavf/internal/store/backend"
	"mbavf/internal/workloads"
)

// measured simulates one small instrumented workload, once per test
// binary; every codec and store test shares the result read-only.
var measured = sync.OnceValues(func() (*sim.Measurements, error) {
	w, err := workloads.ByName("vecadd")
	if err != nil {
		return nil, err
	}
	s, err := sim.Execute(w, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return s.Measurements(), nil
})

func testMeasurements(t *testing.T) *sim.Measurements {
	t.Helper()
	m, err := measured()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encoded(t *testing.T) []byte {
	t.Helper()
	data, err := EncodedBytes(testMeasurements(t))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := testMeasurements(t)
	data := encoded(t)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != m.Workload || got.ConfigFP != m.ConfigFP ||
		got.Cycles != m.Cycles || got.Instructions != m.Instructions {
		t.Errorf("meta mismatch: got %+v", got)
	}
	// Bit-identical round trip: re-encoding the decoded measurements must
	// reproduce the original artifact byte for byte.
	again, err := EncodedBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("re-encode differs: %d vs %d bytes", len(data), len(again))
	}
}

// TestEncodeAllocatesOnce pins the sized encoder: an artifact is
// written once into one exact-size buffer, so encoding allocates about
// the artifact's own size, not growth copies of each section and of the
// framed whole.
func TestEncodeAllocatesOnce(t *testing.T) {
	m := testMeasurements(t)
	data := encoded(t)
	if len(data) != cap(data) {
		t.Errorf("artifact buffer has len %d, cap %d; want exact size", len(data), cap(data))
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := EncodedBytes(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(len(data))+4096 {
		t.Errorf("encoding a %d-byte artifact allocates %d bytes", len(data), per)
	}
}

func TestDecodeRejectsEveryFlippedByte(t *testing.T) {
	data := encoded(t)
	// Flipping any single byte anywhere in the artifact must yield a
	// typed error: either the framing breaks (ErrFormat) or a CRC catches
	// it (ErrCorrupt). Sampling every byte is cheap at vecadd size.
	step := 1
	if len(data) > 8192 {
		step = len(data) / 8192
	}
	for i := 0; i < len(data); i += step {
		mut := bytes.Clone(data)
		mut[i] ^= 0xff
		_, err := Decode(mut)
		if err == nil {
			t.Fatalf("flipped byte %d: decode accepted corrupt artifact", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
			t.Fatalf("flipped byte %d: untyped error %v", i, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := encoded(t)
	for _, n := range []int{0, 1, 3, 4, 5, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("truncated to %d bytes: decode accepted", n)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
			t.Errorf("truncated to %d bytes: untyped error %v", n, err)
		}
	}
}

func TestDecodeMetaMatchesFull(t *testing.T) {
	m := testMeasurements(t)
	data := encoded(t)
	a, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	meta := a.Meta()
	secs, err := CheckSections(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Workload != m.Workload || meta.Cycles != m.Cycles ||
		meta.L1Sets != m.L1Sets || meta.VGPRThreads != m.VGPRThreads {
		t.Errorf("meta mismatch: %+v", meta)
	}
	if len(secs) != 5 {
		t.Fatalf("want 5 sections, got %d", len(secs))
	}
	total := 0
	for _, s := range secs {
		if s.Name == "" || s.Bytes < 0 {
			t.Errorf("bad section info %+v", s)
		}
		total += s.Bytes
	}
	if total >= len(data) {
		t.Errorf("section payloads (%d) not smaller than artifact (%d)", total, len(data))
	}
}

func TestKeyFor(t *testing.T) {
	cfg := sim.DefaultConfig()
	k1 := KeyFor("vecadd", cfg)
	if err := backend.CheckKey(k1); err != nil {
		t.Fatalf("malformed key %q: %v", k1, err)
	}
	if k1 != KeyFor("vecadd", cfg) {
		t.Error("key not stable")
	}
	if k1 == KeyFor("minife", cfg) {
		t.Error("key ignores workload")
	}
	cfg2 := cfg
	cfg2.Caches.L1.SizeBytes *= 2
	if k1 == KeyFor("vecadd", cfg2) {
		t.Error("key ignores machine config")
	}
}

func TestStorePutGetHasDelete(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testMeasurements(t)
	key := KeyFor(m.Workload, sim.DefaultConfig())

	if _, err := st.GetArtifact(ctx, key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound before put, got %v", err)
	}
	if st.Has(ctx, key) {
		t.Error("Has before put")
	}
	if err := st.Put(ctx, key, m); err != nil {
		t.Fatal(err)
	}
	if !st.Has(ctx, key) {
		t.Error("no Has after put")
	}
	a, err := st.GetArtifact(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Meta(); got.Workload != m.Workload || got.Cycles != m.Cycles {
		t.Errorf("get mismatch: %+v", got)
	}
	if err := st.Delete(ctx, key); err != nil {
		t.Fatal(err)
	}
	if st.Has(ctx, key) {
		t.Error("Has after delete")
	}
	if err := st.Delete(ctx, key); err != nil {
		t.Errorf("delete of missing key should be a no-op, got %v", err)
	}
}

func TestStoreRejectsMalformedKeys(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../../../etc/passwd", "ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ"} {
		if _, err := st.GetArtifact(ctx, key); err == nil {
			t.Errorf("GetArtifact(%q) accepted", key)
		}
		if err := st.Put(ctx, key, testMeasurements(t)); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		if st.Has(ctx, key) {
			t.Errorf("Has(%q) true", key)
		}
	}
}

func TestStoreQuarantinesCorruptArtifact(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testMeasurements(t)
	key := KeyFor(m.Workload, sim.DefaultConfig())
	if err := st.Put(ctx, key, m); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the committed artifact.
	path := st.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = st.GetArtifact(ctx, key)
	if err == nil {
		t.Fatal("GetArtifact accepted corrupt artifact")
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
		t.Fatalf("untyped corruption error %v", err)
	}
	if st.Has(ctx, key) {
		t.Error("corrupt artifact still addressable after quarantine")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", key+".mbavf")); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	// The key now misses cleanly: the fallback path is re-record.
	if _, err := st.GetArtifact(ctx, key); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound after quarantine, got %v", err)
	}
	if err := st.Put(ctx, key, m); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetArtifact(ctx, key); err != nil {
		t.Errorf("re-record after quarantine failed: %v", err)
	}
}

func TestStoreListInspectVerify(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testMeasurements(t)
	key := KeyFor(m.Workload, sim.DefaultConfig())
	if err := st.Put(ctx, key, m); err != nil {
		t.Fatal(err)
	}
	// A second, damaged artifact under a different (well-formed) key.
	badKey := "00000000000000000000000000000000"
	if err := os.WriteFile(st.Path(badKey), []byte("MBAVgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := st.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("want 2 listed artifacts, got %d", len(infos))
	}
	var okN, badN int
	for _, in := range infos {
		if in.Err != nil {
			badN++
			if in.Key != badKey {
				t.Errorf("wrong artifact flagged damaged: %s", in.Key)
			}
		} else {
			okN++
			if in.Meta.Workload != m.Workload {
				t.Errorf("listed meta mismatch: %+v", in.Meta)
			}
		}
	}
	if okN != 1 || badN != 1 {
		t.Errorf("want 1 ok + 1 damaged, got %d + %d", okN, badN)
	}

	in, err := st.Inspect(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if in.Meta.Cycles != m.Cycles || len(in.Sections) != 5 {
		t.Errorf("inspect mismatch: %+v", in)
	}
	if _, err := st.Inspect(ctx, badKey); err == nil {
		t.Error("Inspect accepted damaged artifact")
	}

	if err := st.Verify(ctx, key); err != nil {
		t.Errorf("Verify of good artifact: %v", err)
	}
	if err := st.Verify(ctx, badKey); err == nil {
		t.Error("Verify accepted damaged artifact")
	}
	// Verify must not quarantine: it is a diagnostic.
	if !st.Has(ctx, badKey) {
		t.Error("Verify quarantined the artifact")
	}
}

func TestStoreGC(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testMeasurements(t)
	key := KeyFor(m.Workload, sim.DefaultConfig())
	if err := st.Put(ctx, key, m); err != nil {
		t.Fatal(err)
	}
	// Plant a quarantined file; GC always reclaims it.
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(qdir, "deadbeef.mbavf"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, freed, err := st.GC(ctx, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != 1 {
		t.Errorf("quarantine sweep: removed %d freed %d", removed, freed)
	}
	if !st.Has(ctx, key) {
		t.Error("unlimited GC evicted a live artifact")
	}
	// A dry run against a 1-byte budget reports the eviction without
	// performing it.
	removed, _, err = st.GC(ctx, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || !st.Has(ctx, key) {
		t.Errorf("dry-run GC: removed %d, has=%v", removed, st.Has(ctx, key))
	}
	// A 1-byte budget evicts everything.
	removed, _, err = st.GC(ctx, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || st.Has(ctx, key) {
		t.Errorf("budgeted GC: removed %d, has=%v", removed, st.Has(ctx, key))
	}
}

func TestEncodeRequiresInstrumentation(t *testing.T) {
	m := testMeasurements(t)
	partial := *m
	partial.Graph = nil
	if _, err := EncodedBytes(&partial); err == nil {
		t.Error("encode accepted uninstrumented measurements")
	}
	var buf bytes.Buffer
	if err := Encode(&buf, &partial); err == nil {
		t.Error("Encode accepted uninstrumented measurements")
	}
}
