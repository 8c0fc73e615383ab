package store

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mbavf/internal/sim"
	"mbavf/internal/store/mem"
)

// failFirst is a ranged in-memory backend that, once armed, fails the
// first read of each offset and serves every later one: a network blip
// on every section's first fetch.
type failFirst struct {
	*mem.Backend
	armed atomic.Bool
	mu    sync.Mutex
	reads map[int64]int // reads per offset since arming
}

func (b *failFirst) ReadSection(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if b.armed.Load() {
		b.mu.Lock()
		b.reads[off]++
		first := b.reads[off] == 1
		b.mu.Unlock()
		if first {
			return nil, errors.New("connection reset")
		}
	}
	return b.Backend.ReadSection(ctx, key, off, n)
}

// TestArtifactSectionRetry first-touches the graph and every tracker
// from several goroutines at once on a ranged artifact whose backend
// fails the first fetch of each section. Each failure reaches exactly
// one caller and leaves nothing cached; the next fetch decodes the
// section once, and every caller ends up holding that one decode. Run
// it under -race: it is the detector's coverage of the section locks.
func TestArtifactSectionRetry(t *testing.T) {
	ctx := context.Background()
	m := testMeasurements(t)
	b := &failFirst{Backend: mem.NewRanged(), reads: map[int64]int{}}
	st := NewStore(b)
	key := KeyFor(m.Workload, sim.DefaultConfig())
	if err := st.Put(ctx, key, m); err != nil {
		t.Fatal(err)
	}
	a, err := st.GetArtifact(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	b.armed.Store(true)

	sections := []func() (any, error){
		func() (any, error) { return a.Graph() },
		func() (any, error) { return a.L1() },
		func() (any, error) { return a.L2() },
		func() (any, error) { return a.VGPR() },
	}
	const goroutines = 8
	var failures atomic.Int32
	got := make([][4]any, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sections {
				s := (g + i) % len(sections)
				// A tracker can meet two failed fetches: the graph's,
				// then its own.
				for try := 0; ; try++ {
					v, err := sections[s]()
					if err == nil {
						got[g][s] = v
						break
					}
					failures.Add(1)
					if try == 2 {
						t.Errorf("section %d still failing after %d fetches: %v", s, try+1, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if n := failures.Load(); n != int32(len(sections)) {
		t.Errorf("callers saw %d failures, want one per section (%d)", n, len(sections))
	}
	if len(b.reads) != len(sections) {
		t.Errorf("fetched %d distinct sections, want %d", len(b.reads), len(sections))
	}
	for off, n := range b.reads {
		if n != 2 {
			t.Errorf("section at offset %d read %d times, want 2 (the failure, then one decode)", off, n)
		}
	}
	for g := range got {
		if got[g] != got[0] {
			t.Errorf("goroutine %d holds different decodes than goroutine 0", g)
		}
	}
	if ok, _ := b.Has(ctx, key); !ok {
		t.Error("failed fetches quarantined the artifact")
	}
	full, err := a.Measurements()
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodedBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodedBytes(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Error("retried sections do not re-encode to the stored artifact")
	}
}
