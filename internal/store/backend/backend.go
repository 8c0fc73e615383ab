// Package backend defines the pluggable storage interface beneath the
// run-artifact store. A backend is a flat, content-addressed blob
// namespace: keys are 32-hex-digit digests, values are opaque encoded
// artifacts. All artifact semantics — format framing, CRC validation,
// quarantine policy, lazy decoding — live one layer up in
// internal/store, so a backend only has to move bytes reliably.
//
// The package is a leaf on purpose: internal/store and every backend
// implementation (disk, mem, httpstore) import it, and it imports
// nothing of theirs, so new backends (object storage, tiered
// disk+HTTP) slot in without touching the store layer.
package backend

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"time"
)

// ErrNotFound marks a Get/Stat/ReadSection for a key the backend does
// not hold. Every implementation must return an error wrapping this for
// missing keys — the store layer's miss accounting and the run-store's
// fall-through to simulation both key off errors.Is(err, ErrNotFound).
var ErrNotFound = errors.New("store: artifact not found")

// keyRE validates externally supplied keys before they touch a
// filesystem or a URL path (they become file and resource names).
var keyRE = regexp.MustCompile(`^[0-9a-f]{32}$`)

// CheckKey rejects keys that are not 32-hex-digit content addresses.
// Backends call it at their boundary so a hostile key ("../../etc/…")
// can never traverse out of the namespace.
func CheckKey(key string) error {
	if !keyRE.MatchString(key) {
		return fmt.Errorf("store: malformed key %q", key)
	}
	return nil
}

// KeyInfo describes one stored blob without reading its contents.
type KeyInfo struct {
	Key     string
	Bytes   int64
	ModTime time.Time
	// ETag is an opaque version tag that changes whenever the blob's
	// bytes change. The HTTP backend surfaces it for conditional catalog
	// fetches; other backends derive it from what they have (mtime+size,
	// a content digest).
	ETag string
}

// Interface is the contract every artifact-store backend implements.
// Keys are validated 32-hex-digit content addresses; values are opaque.
// Implementations must be safe for concurrent use, and writes must be
// atomic at blob granularity: a reader never observes a half-written
// value.
type Interface interface {
	// Name identifies the implementation kind ("disk", "http", "mem")
	// for metrics labels.
	Name() string
	// String describes this instance (directory path, base URL) for
	// human-facing output.
	String() string
	// Get returns the full blob stored under key, or ErrNotFound.
	Get(ctx context.Context, key string) ([]byte, error)
	// Put stores data under key, atomically replacing any previous
	// value.
	Put(ctx context.Context, key string, data []byte) error
	// Has reports whether a blob is stored under key.
	Has(ctx context.Context, key string) (bool, error)
	// Stat describes the blob stored under key, or ErrNotFound.
	Stat(ctx context.Context, key string) (KeyInfo, error)
	// List enumerates the stored blobs in unspecified order.
	List(ctx context.Context) ([]KeyInfo, error)
	// Delete removes the blob stored under key; deleting a missing key
	// is not an error.
	Delete(ctx context.Context, key string) error
	// ReadSection returns n bytes of the blob starting at off, or
	// ErrNotFound. A read past the end of the blob is an error. This is
	// what lets the store's lazy per-section decode pull only the
	// timeline a query touches instead of the whole artifact.
	ReadSection(ctx context.Context, key string, off, n int64) ([]byte, error)
	// Quarantine moves a damaged blob out of the addressable namespace
	// while keeping its bytes for post-mortem (the disk backend renames
	// into quarantine/; the HTTP client asks the server to do the same).
	Quarantine(ctx context.Context, key string) error
	// Ranged reports whether ReadSection is genuinely cheaper than Get
	// — an HTTP Range request. The store uses it to decide between
	// loading a whole artifact eagerly (one sequential read beats five
	// seeks on a local file) and scanning the section table remotely so
	// an L1 query never transfers the L2 and register-file timelines.
	Ranged() bool
}

// Sweeper is implemented by backends with private debris to reclaim —
// quarantined blobs, orphaned temp files from crashed writers. The
// store's GC invokes it before eviction. When dryRun is set, the sweep
// only counts what it would remove.
type Sweeper interface {
	Sweep(ctx context.Context, dryRun bool) (removed int, freed int64, err error)
}
