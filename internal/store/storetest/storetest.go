// Package storetest is the backend conformance suite: one set of
// contract tests every artifact-store backend (disk, mem, httpstore)
// must pass, so "implements backend.Interface" means the same thing
// everywhere — including the corners the store layer leans on, like
// ErrNotFound typing, byte-exact round trips, ranged reads, and
// concurrent Put/Get safety under the race detector.
package storetest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mbavf/internal/store/backend"
)

// key returns the i-th well-formed test key: 32 hex digits, distinct
// per i.
func key(i int) string { return fmt.Sprintf("%032x", i+1) }

// blob returns a deterministic test payload of length n, distinct per
// seed.
func blob(seed byte, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = seed + byte(i*7)
	}
	return data
}

// Run exercises one backend implementation against the full contract.
// mk builds a fresh, empty backend per subtest; cleanup belongs on
// t.Cleanup inside mk.
func Run(t *testing.T, mk func(t *testing.T) backend.Interface) {
	t.Run("Missing", func(t *testing.T) { testMissing(t, mk(t)) })
	t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, mk(t)) })
	t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, mk(t)) })
	t.Run("ReadSection", func(t *testing.T) { testReadSection(t, mk(t)) })
	t.Run("List", func(t *testing.T) { testList(t, mk(t)) })
	t.Run("MalformedKeys", func(t *testing.T) { testMalformedKeys(t, mk(t)) })
	t.Run("Quarantine", func(t *testing.T) { testQuarantine(t, mk(t)) })
	t.Run("Concurrent", func(t *testing.T) { testConcurrent(t, mk(t)) })
}

// testMissing pins the empty-store behavior: typed misses, false Has,
// idempotent Delete.
func testMissing(t *testing.T, b backend.Interface) {
	ctx := context.Background()
	k := key(0)
	if _, err := b.Get(ctx, k); !errors.Is(err, backend.ErrNotFound) {
		t.Errorf("Get of missing key: want ErrNotFound, got %v", err)
	}
	if _, err := b.Stat(ctx, k); !errors.Is(err, backend.ErrNotFound) {
		t.Errorf("Stat of missing key: want ErrNotFound, got %v", err)
	}
	ok, err := b.Has(ctx, k)
	if err != nil || ok {
		t.Errorf("Has of missing key: got (%v, %v), want (false, nil)", ok, err)
	}
	if err := b.Delete(ctx, k); err != nil {
		t.Errorf("Delete of missing key must be a no-op, got %v", err)
	}
}

func testRoundTrip(t *testing.T, b backend.Interface) {
	ctx := context.Background()
	k, data := key(0), blob(1, 4096)
	if err := b.Put(ctx, k, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ok, err := b.Has(ctx, k)
	if err != nil || !ok {
		t.Fatalf("Has after Put: got (%v, %v), want (true, nil)", ok, err)
	}
	got, err := b.Get(ctx, k)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %d bytes that differ from the %d put", len(got), len(data))
	}
	ki, err := b.Stat(ctx, k)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if ki.Key != k || ki.Bytes != int64(len(data)) {
		t.Errorf("Stat = %+v, want key %s with %d bytes", ki, k, len(data))
	}
	if ki.ETag == "" {
		t.Error("Stat returned an empty ETag")
	}
	if err := b.Delete(ctx, k); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := b.Get(ctx, k); !errors.Is(err, backend.ErrNotFound) {
		t.Errorf("Get after Delete: want ErrNotFound, got %v", err)
	}
}

// testOverwrite pins last-writer-wins semantics and that a replacement
// with different content changes the version tag.
func testOverwrite(t *testing.T, b backend.Interface) {
	ctx := context.Background()
	k := key(0)
	if err := b.Put(ctx, k, blob(1, 100)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	before, err := b.Stat(ctx, k)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	second := blob(2, 200)
	if err := b.Put(ctx, k, second); err != nil {
		t.Fatalf("overwrite Put: %v", err)
	}
	got, err := b.Get(ctx, k)
	if err != nil {
		t.Fatalf("Get after overwrite: %v", err)
	}
	if !bytes.Equal(got, second) {
		t.Error("Get after overwrite returned stale bytes")
	}
	after, err := b.Stat(ctx, k)
	if err != nil {
		t.Fatalf("Stat after overwrite: %v", err)
	}
	if after.ETag == before.ETag {
		t.Errorf("ETag unchanged across a content change: %q", after.ETag)
	}
}

func testReadSection(t *testing.T, b backend.Interface) {
	ctx := context.Background()
	k, data := key(0), blob(3, 1000)
	if err := b.Put(ctx, k, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, rng := range []struct{ off, n int64 }{
		{0, 1}, {0, 1000}, {17, 83}, {999, 1}, {500, 500},
	} {
		got, err := b.ReadSection(ctx, k, rng.off, rng.n)
		if err != nil {
			t.Fatalf("ReadSection[%d,+%d): %v", rng.off, rng.n, err)
		}
		if !bytes.Equal(got, data[rng.off:rng.off+rng.n]) {
			t.Fatalf("ReadSection[%d,+%d) returned wrong bytes", rng.off, rng.n)
		}
	}
	if _, err := b.ReadSection(ctx, key(1), 0, 10); !errors.Is(err, backend.ErrNotFound) {
		t.Errorf("ReadSection of missing key: want ErrNotFound, got %v", err)
	}
}

func testList(t *testing.T, b backend.Interface) {
	ctx := context.Background()
	kis, err := b.List(ctx)
	if err != nil {
		t.Fatalf("List of empty store: %v", err)
	}
	if len(kis) != 0 {
		t.Fatalf("empty store lists %d artifacts", len(kis))
	}
	want := map[string]int{}
	for i := 0; i < 3; i++ {
		n := 100 * (i + 1)
		if err := b.Put(ctx, key(i), blob(byte(i), n)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		want[key(i)] = n
	}
	kis, err = b.List(ctx)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(kis) != len(want) {
		t.Fatalf("List returned %d artifacts, want %d", len(kis), len(want))
	}
	for _, ki := range kis {
		n, ok := want[ki.Key]
		if !ok {
			t.Errorf("List invented key %s", ki.Key)
			continue
		}
		if ki.Bytes != int64(n) {
			t.Errorf("List reports %d bytes for %s, want %d", ki.Bytes, ki.Key, n)
		}
	}
}

// testMalformedKeys pins that no operation touches storage under a key
// that fails validation — path traversal through a key must be
// impossible at the backend layer, not just in the store above it.
func testMalformedKeys(t *testing.T, b backend.Interface) {
	ctx := context.Background()
	for _, k := range []string{"", "short", "../../../../etc/passwd", "ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ",
		"0123456789abcdef0123456789abcde\n"} {
		if _, err := b.Get(ctx, k); err == nil {
			t.Errorf("Get(%q) accepted", k)
		}
		if err := b.Put(ctx, k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
		if ok, _ := b.Has(ctx, k); ok {
			t.Errorf("Has(%q) true", k)
		}
		if _, err := b.Stat(ctx, k); err == nil {
			t.Errorf("Stat(%q) accepted", k)
		}
		if err := b.Delete(ctx, k); err == nil {
			t.Errorf("Delete(%q) accepted", k)
		}
	}
}

// testQuarantine pins that a quarantined key misses cleanly and can be
// re-recorded — the contract the store's corruption fallback builds on.
func testQuarantine(t *testing.T, b backend.Interface) {
	ctx := context.Background()
	k := key(0)
	if err := b.Put(ctx, k, blob(4, 64)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := b.Quarantine(ctx, k); err != nil {
		t.Fatalf("Quarantine: %v", err)
	}
	if has, _ := b.Has(ctx, k); has {
		t.Error("quarantined key still addressable")
	}
	if _, err := b.Get(ctx, k); !errors.Is(err, backend.ErrNotFound) {
		t.Errorf("Get of quarantined key: want ErrNotFound, got %v", err)
	}
	replacement := blob(5, 64)
	if err := b.Put(ctx, k, replacement); err != nil {
		t.Fatalf("re-record after quarantine: %v", err)
	}
	got, err := b.Get(ctx, k)
	if err != nil || !bytes.Equal(got, replacement) {
		t.Errorf("Get after re-record: %v", err)
	}
}

// testConcurrent races writers against readers on a small key space.
// Run under -race this proves the backend's internal synchronization;
// semantically it pins that a reader only ever observes a complete
// payload some writer put — never torn bytes.
func testConcurrent(t *testing.T, b backend.Interface) {
	ctx := context.Background()
	const (
		keys    = 4
		writers = 4
		readers = 4
		rounds  = 25
	)
	valid := func(data []byte) bool {
		// Every payload is blob(seed, 256): the seed is byte 0 and each
		// later byte is derived from it, so completeness is checkable.
		if len(data) != 256 {
			return false
		}
		return bytes.Equal(data, blob(data[0], 256))
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := key(int(seed) % keys)
				if err := b.Put(ctx, k, blob(seed+byte(r), 256)); err != nil {
					errs <- fmt.Errorf("concurrent Put: %w", err)
					return
				}
			}
		}(byte(w))
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := key((i + r) % keys)
				data, err := b.Get(ctx, k)
				if errors.Is(err, backend.ErrNotFound) {
					continue // not yet written
				}
				if err != nil {
					errs <- fmt.Errorf("concurrent Get: %w", err)
					return
				}
				if !valid(data) {
					errs <- fmt.Errorf("concurrent Get observed torn payload (%d bytes)", len(data))
					return
				}
				if _, err := b.ReadSection(ctx, k, 16, 16); err != nil && !errors.Is(err, backend.ErrNotFound) {
					errs <- fmt.Errorf("concurrent ReadSection: %w", err)
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
