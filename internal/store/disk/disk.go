// Package disk is the directory-backed artifact-store backend: one file
// per content-addressed key, written atomically via temp-file-plus-
// rename so concurrent readers (including other processes sharing the
// directory) only ever observe complete artifacts. Damaged artifacts
// quarantine by rename into a quarantine/ subdirectory, keeping their
// bytes for post-mortem until a GC sweep reclaims them.
package disk

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mbavf/internal/store/backend"
)

// artifactExt is the on-disk suffix of stored artifacts.
const artifactExt = ".mbavf"

// quarantineDir collects artifacts that failed decoding. They are kept
// (renamed, not deleted) so an operator can post-mortem the damage, and
// reclaimed by GC's sweep.
const quarantineDir = "quarantine"

// tempMaxAge is how long an orphaned temp file may sit before a sweep
// reclaims it; an active writer renames within seconds.
const tempMaxAge = time.Hour

// Backend is a content-addressed directory of artifacts. All methods
// are safe for concurrent use by independent processes.
type Backend struct {
	dir string
}

// New returns a disk backend rooted at dir, creating the directory if
// needed.
func New(dir string) (*Backend, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Backend{dir: dir}, nil
}

// Name identifies the backend kind for metrics labels.
func (b *Backend) Name() string { return "disk" }

// String returns the store's root directory.
func (b *Backend) String() string { return b.dir }

// Path returns the file path the artifact with the given key lives at.
func (b *Backend) Path(key string) string { return filepath.Join(b.dir, key+artifactExt) }

// Ranged reports false: a local artifact is one sequential read, so
// eagerly loading it whole beats five pread calls plus a stat.
func (b *Backend) Ranged() bool { return false }

// etag derives a version tag from what the filesystem gives us; rename
// commits update the mtime, so any replacement changes the tag.
func etag(st fs.FileInfo) string {
	return fmt.Sprintf("%x-%x", st.ModTime().UnixNano(), st.Size())
}

// Get returns the artifact stored under key, or backend.ErrNotFound.
func (b *Backend) Get(ctx context.Context, key string) ([]byte, error) {
	if err := backend.CheckKey(key); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(b.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// ReadSection returns n bytes of the artifact starting at off.
func (b *Backend) ReadSection(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := backend.CheckKey(key); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(b.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: reading %s [%d,+%d): %w", key, off, n, err)
	}
	return buf, nil
}

// Put commits data under key atomically: it is written to a temp file
// in the store directory and renamed into place, so a crash mid-write
// never leaves a partial artifact addressable.
func (b *Backend) Put(ctx context.Context, key string, data []byte) error {
	if err := backend.CheckKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(b.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), b.Path(key)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Has reports whether an artifact is stored under key.
func (b *Backend) Has(ctx context.Context, key string) (bool, error) {
	if err := backend.CheckKey(key); err != nil {
		return false, err
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	_, err := os.Stat(b.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	return true, nil
}

// Stat describes the artifact stored under key.
func (b *Backend) Stat(ctx context.Context, key string) (backend.KeyInfo, error) {
	if err := backend.CheckKey(key); err != nil {
		return backend.KeyInfo{}, err
	}
	if err := ctx.Err(); err != nil {
		return backend.KeyInfo{}, err
	}
	st, err := os.Stat(b.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return backend.KeyInfo{}, fmt.Errorf("%w: %s", backend.ErrNotFound, key)
	}
	if err != nil {
		return backend.KeyInfo{}, fmt.Errorf("store: %w", err)
	}
	return backend.KeyInfo{Key: key, Bytes: st.Size(), ModTime: st.ModTime(), ETag: etag(st)}, nil
}

// List enumerates the stored artifacts, sorted by key (os.ReadDir
// returns sorted entries).
func (b *Backend) List(ctx context.Context) ([]backend.KeyInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []backend.KeyInfo
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if filepath.Ext(name) != artifactExt {
			continue
		}
		key := strings.TrimSuffix(name, artifactExt)
		if backend.CheckKey(key) != nil {
			continue
		}
		st, serr := e.Info()
		if serr != nil {
			continue // raced with a concurrent delete
		}
		out = append(out, backend.KeyInfo{Key: key, Bytes: st.Size(), ModTime: st.ModTime(), ETag: etag(st)})
	}
	return out, nil
}

// Delete removes the artifact stored under key, if any.
func (b *Backend) Delete(ctx context.Context, key string) error {
	if err := backend.CheckKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := os.Remove(b.Path(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Quarantine moves a damaged artifact out of the addressable namespace
// so the next Get for its key misses cleanly, keeping the bytes under
// quarantine/ for post-mortem. A failed rename falls back to removal.
func (b *Backend) Quarantine(ctx context.Context, key string) error {
	if err := backend.CheckKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	qdir := filepath.Join(b.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(b.Path(key), filepath.Join(qdir, key+artifactExt)) == nil {
			return nil
		}
	}
	if err := os.Remove(b.Path(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return fmt.Errorf("store: quarantine of %s fell back to removal", key)
}

// Sweep reclaims the backend's private debris: everything in
// quarantine/ and orphaned temp files older than an hour (a crashed
// writer's leftovers; an active writer renames within seconds). With
// dryRun it only counts what it would remove.
func (b *Backend) Sweep(ctx context.Context, dryRun bool) (removed int, freed int64, err error) {
	qdir := filepath.Join(b.dir, quarantineDir)
	if ents, rerr := os.ReadDir(qdir); rerr == nil {
		for _, e := range ents {
			if err := ctx.Err(); err != nil {
				return removed, freed, err
			}
			p := filepath.Join(qdir, e.Name())
			st, serr := os.Stat(p)
			if serr != nil {
				continue
			}
			if dryRun || os.Remove(p) == nil {
				removed++
				freed += st.Size()
			}
		}
	}
	ents, rerr := os.ReadDir(b.dir)
	if rerr != nil {
		return removed, freed, fmt.Errorf("store: %w", rerr)
	}
	for _, e := range ents {
		if err := ctx.Err(); err != nil {
			return removed, freed, err
		}
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ".tmp-") {
			continue
		}
		st, serr := e.Info()
		if serr != nil || time.Since(st.ModTime()) <= tempMaxAge {
			continue
		}
		if dryRun || os.Remove(filepath.Join(b.dir, name)) == nil {
			removed++
			freed += st.Size()
		}
	}
	return removed, freed, nil
}

// check the interface contracts at compile time.
var (
	_ backend.Interface = (*Backend)(nil)
	_ backend.Sweeper   = (*Backend)(nil)
)
