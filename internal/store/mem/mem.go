// Package mem is the in-memory artifact-store backend: a mutex-guarded
// map used by tests (the backend conformance suite runs against it
// directly) and as the blob namespace behind an httpstore server in
// unit tests. Blobs are copied on Put and Get, so callers can never
// alias the stored bytes.
package mem

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"mbavf/internal/store/backend"
)

// blob is one stored value with the metadata Stat and List report.
type blob struct {
	data []byte
	mod  time.Time
	etag string
}

// Backend is an in-memory content-addressed blob map, safe for
// concurrent use.
type Backend struct {
	mu          sync.Mutex
	blobs       map[string]blob
	quarantined map[string][]byte
	ranged      bool
}

// New returns an empty in-memory backend.
func New() *Backend {
	return &Backend{blobs: make(map[string]blob), quarantined: make(map[string][]byte)}
}

// NewRanged returns an in-memory backend that advertises cheap section
// reads, forcing the store layer onto its ranged (section-table-scan)
// load path — the test double for HTTP Range semantics.
func NewRanged() *Backend {
	b := New()
	b.ranged = true
	return b
}

// Name identifies the backend kind for metrics labels.
func (b *Backend) Name() string { return "mem" }

// String describes the instance.
func (b *Backend) String() string { return "mem" }

// Ranged reports whether this instance advertises cheap section reads.
func (b *Backend) Ranged() bool { return b.ranged }

// Get returns a copy of the blob stored under key.
func (b *Backend) Get(ctx context.Context, key string) ([]byte, error) {
	if err := backend.CheckKey(key); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	bl, ok := b.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotFound, key)
	}
	out := make([]byte, len(bl.data))
	copy(out, bl.data)
	return out, nil
}

// ReadSection returns n bytes of the blob starting at off.
func (b *Backend) ReadSection(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := backend.CheckKey(key); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	bl, ok := b.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotFound, key)
	}
	if off < 0 || n < 0 || off+n > int64(len(bl.data)) {
		return nil, fmt.Errorf("store: reading %s [%d,+%d): out of range (blob is %d bytes)", key, off, n, len(bl.data))
	}
	out := make([]byte, n)
	copy(out, bl.data[off:off+n])
	return out, nil
}

// Put stores a copy of data under key.
func (b *Backend) Put(ctx context.Context, key string, data []byte) error {
	if err := backend.CheckKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	sum := sha256.Sum256(cp)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blobs[key] = blob{data: cp, mod: time.Now(), etag: hex.EncodeToString(sum[:16])}
	return nil
}

// Has reports whether a blob is stored under key.
func (b *Backend) Has(ctx context.Context, key string) (bool, error) {
	if err := backend.CheckKey(key); err != nil {
		return false, err
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.blobs[key]
	return ok, nil
}

// Stat describes the blob stored under key.
func (b *Backend) Stat(ctx context.Context, key string) (backend.KeyInfo, error) {
	if err := backend.CheckKey(key); err != nil {
		return backend.KeyInfo{}, err
	}
	if err := ctx.Err(); err != nil {
		return backend.KeyInfo{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	bl, ok := b.blobs[key]
	if !ok {
		return backend.KeyInfo{}, fmt.Errorf("%w: %s", backend.ErrNotFound, key)
	}
	return backend.KeyInfo{Key: key, Bytes: int64(len(bl.data)), ModTime: bl.mod, ETag: bl.etag}, nil
}

// List enumerates the stored blobs.
func (b *Backend) List(ctx context.Context) ([]backend.KeyInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]backend.KeyInfo, 0, len(b.blobs))
	for key, bl := range b.blobs {
		out = append(out, backend.KeyInfo{Key: key, Bytes: int64(len(bl.data)), ModTime: bl.mod, ETag: bl.etag})
	}
	return out, nil
}

// Delete removes the blob stored under key, if any.
func (b *Backend) Delete(ctx context.Context, key string) error {
	if err := backend.CheckKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.blobs, key)
	return nil
}

// Quarantine moves a damaged blob out of the addressable namespace,
// keeping its bytes inspectable via Quarantined.
func (b *Backend) Quarantine(ctx context.Context, key string) error {
	if err := backend.CheckKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if bl, ok := b.blobs[key]; ok {
		b.quarantined[key] = bl.data
		delete(b.blobs, key)
	}
	return nil
}

// Quarantined returns the quarantined bytes for key, if any — test
// hooks for asserting quarantine behavior.
func (b *Backend) Quarantined(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.quarantined[key]
	return data, ok
}

// Sweep drops everything in quarantine. With dryRun it only counts.
func (b *Backend) Sweep(ctx context.Context, dryRun bool) (removed int, freed int64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for key, data := range b.quarantined {
		removed++
		freed += int64(len(data))
		if !dryRun {
			delete(b.quarantined, key)
		}
	}
	return removed, freed, nil
}

var (
	_ backend.Interface = (*Backend)(nil)
	_ backend.Sweeper   = (*Backend)(nil)
)
