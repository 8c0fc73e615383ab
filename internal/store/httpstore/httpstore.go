// Package httpstore speaks the HTTP artifact protocol: a Client backend
// that lets a whole fleet of workers share one artifact store over the
// network, and a Server that mounts any other backend (normally disk)
// behind it. One worker simulates and records; every other worker's
// query is then a ranged fetch instead of a simulation.
//
// # Protocol
//
// Artifacts live under {base}/store/v1:
//
//	GET    /store/v1/artifacts/{key}   whole blob (200) or a Range
//	                                   slice (206); X-Mbavf-Checksum
//	                                   carries the sha256 of the bytes
//	                                   as sent
//	HEAD   /store/v1/artifacts/{key}   size, ETag, X-Mbavf-Modtime
//	PUT    /store/v1/artifacts/{key}   store the body (201); the
//	                                   server verifies X-Mbavf-Checksum
//	                                   when the client sends it
//	DELETE /store/v1/artifacts/{key}   remove (?quarantine=1 keeps the
//	                                   bytes server-side for
//	                                   post-mortem)
//	GET    /store/v1/catalog           JSON listing with an ETag;
//	                                   If-None-Match answers 304
//
// Keys are validated 32-hex-digit content addresses on both ends; a
// malformed key is 400, a missing one 404. The checksum header guards
// transport integrity only — the artifact format's per-section CRC32s
// still decide whether the payload is analyzable, so damage that
// happened before the bytes reached the server quarantines exactly as
// on a local store.
//
// The client gives every attempt a deadline and reads no more of a
// response body than the operation can use. It retries transient
// failures (network errors and expired attempts, 5xx, 429, checksum
// mismatches) with jittered exponential backoff and reports everything
// else — including exhaustion — as a plain error, which the run-store
// treats as transient: the caller falls through to simulation rather
// than failing the query. The store stays an accelerator, never a
// correctness dependency.
package httpstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mbavf/internal/obs"
	"mbavf/internal/store/backend"
	"mbavf/internal/wire"
)

// Prefix is the URL path prefix of the artifact protocol.
const Prefix = "/store/v1"

const modTimeHeader = "X-Mbavf-Modtime"

// maxReplyBytes bounds every response that is not an artifact: the
// catalog (an entry is about 150 bytes, so this is room for hundreds of
// thousands of artifacts) and the status bodies of PUT and DELETE.
const maxReplyBytes = 64 << 20

// maxBackoff caps the wait between attempts, as the fabric's default
// RetryMax caps its own.
const maxBackoff = 5 * time.Second

// Client-side observability; /metrics exposes these as
// mbavf_store_http_*. range_reads counting up while bytes_read stays
// well below the artifact sizes is the signature of the lazy
// per-section fetch path working.
var (
	obsRequests    = obs.NewCounter("store.http.requests")
	obsRetries     = obs.NewCounter("store.http.retries")
	obsRangeReads  = obs.NewCounter("store.http.range_reads")
	obsChecksumBad = obs.NewCounter("store.http.checksum_rejects")
	obsCatalog304  = obs.NewCounter("store.http.catalog_not_modified")
)

// Client is the artifact-store backend over HTTP. It is safe for
// concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	attempts int
	backoff  time.Duration

	// Conditional catalog fetches: the server's ETag plus the listing it
	// tagged, replayed on 304.
	mu          sync.Mutex
	catalogETag string
	catalog     []backend.KeyInfo
}

// Option tunes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport — how the chaos tests inject
// wire.NewChaosTransport under the client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets the total attempt budget per operation and the base
// backoff between attempts (doubled each retry, jittered ±50%).
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(c *Client) {
		if attempts > 0 {
			c.attempts = attempts
		}
		c.backoff = backoff
	}
}

// New returns a client over the artifact server at baseURL (with or
// without the /store/v1 suffix; "http://host:8080" is enough).
func New(baseURL string, opts ...Option) *Client {
	base := strings.TrimRight(baseURL, "/")
	base = strings.TrimSuffix(base, Prefix)
	c := &Client{
		base:     base,
		hc:       &http.Client{},
		attempts: 3,
		backoff:  100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name identifies the backend kind for metrics labels.
func (c *Client) Name() string { return "http" }

// String describes the instance.
func (c *Client) String() string { return c.base + Prefix }

// Ranged reports true: an HTTP Range request transfers only the bytes
// asked for, so the store's section-table-scan load path pays off.
func (c *Client) Ranged() bool { return true }

func (c *Client) artifactURL(key string) string {
	return c.base + Prefix + "/artifacts/" + key
}

// do runs one attempt-budgeted operation. op makes one attempt;
// failures wire.Transient accepts are retried after wire.Backoff, every
// other error returns at once.
func (c *Client) do(ctx context.Context, op func() error) error {
	var err error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			obsRetries.Add(1)
			if werr := wire.Backoff(ctx, attempt-1, c.backoff, maxBackoff); werr != nil {
				return werr
			}
		}
		obsRequests.Add(1)
		err = op()
		if errors.Is(err, wire.ErrChecksum) {
			obsChecksumBad.Add(1)
		}
		if err == nil || !wire.Transient(err) {
			return err
		}
	}
	return fmt.Errorf("store: http backend gave up after %d attempts: %w", c.attempts, err)
}

// Get returns the artifact stored under key.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	if err := backend.CheckKey(key); err != nil {
		return nil, err
	}
	var out []byte
	err := c.do(ctx, func() error {
		resp, err := wire.Do(ctx, c.hc, http.MethodGet, c.artifactURL(key), nil, nil, wire.Limit(maxUploadBytes))
		if err != nil {
			return err
		}
		switch resp.Status {
		case http.StatusOK:
			out = resp.Body
			return nil
		case http.StatusNotFound:
			return fmt.Errorf("%w: %s", backend.ErrNotFound, key)
		default:
			return fmt.Errorf("store: GET %s: %w", key, resp.Err())
		}
	})
	return out, err
}

// ReadSection returns n bytes of the artifact starting at off, via an
// HTTP Range request. A server that ignores the Range header (answers
// 200 with the whole blob) still works: the slice is cut client-side.
// A 206 body is read to at most n+1 bytes, so a server that streams
// more than it was asked for costs one byte past the range, not the
// stream.
func (c *Client) ReadSection(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := backend.CheckKey(key); err != nil {
		return nil, err
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("store: reading %s [%d,+%d): negative range", key, off, n)
	}
	rng := http.Header{"Range": {fmt.Sprintf("bytes=%d-%d", off, off+n-1)}}
	limit := func(status int) int64 {
		if status == http.StatusPartialContent {
			return n
		}
		return maxUploadBytes
	}
	var out []byte
	err := c.do(ctx, func() error {
		resp, err := wire.Do(ctx, c.hc, http.MethodGet, c.artifactURL(key), rng, nil, limit)
		if err != nil {
			return err
		}
		body := resp.Body
		switch resp.Status {
		case http.StatusPartialContent:
			if int64(len(body)) != n {
				return fmt.Errorf("store: GET %s range: got %d bytes, want %d: %w", key, len(body), n, wire.ErrChecksum)
			}
		case http.StatusOK:
			// Range not honored: slice the whole body locally.
			if off+n > int64(len(body)) {
				return fmt.Errorf("store: reading %s [%d,+%d): out of range (blob is %d bytes)", key, off, n, len(body))
			}
			body = body[off : off+n]
		case http.StatusNotFound:
			return fmt.Errorf("%w: %s", backend.ErrNotFound, key)
		case http.StatusRequestedRangeNotSatisfiable:
			return fmt.Errorf("store: reading %s [%d,+%d): out of range", key, off, n)
		default:
			return fmt.Errorf("store: GET %s range: %w", key, resp.Err())
		}
		out = body
		obsRangeReads.Add(1)
		return nil
	})
	return out, err
}

// Put stores data under key. The request carries the body's checksum
// so the server can reject a transit-damaged upload (which the client
// then retries).
func (c *Client) Put(ctx context.Context, key string, data []byte) error {
	if err := backend.CheckKey(key); err != nil {
		return err
	}
	octets := http.Header{"Content-Type": {"application/octet-stream"}}
	return c.do(ctx, func() error {
		resp, err := wire.Do(ctx, c.hc, http.MethodPut, c.artifactURL(key), octets, data, wire.Limit(maxReplyBytes))
		if err != nil {
			return err
		}
		switch resp.Status {
		case http.StatusCreated, http.StatusOK, http.StatusNoContent:
			return nil
		default:
			// A 400 naming "checksum" is the server's verdict that the
			// upload was damaged in transit: transient, so retried.
			return fmt.Errorf("store: PUT %s: %w", key, resp.Err())
		}
	})
}

// Has reports whether an artifact is stored under key.
func (c *Client) Has(ctx context.Context, key string) (bool, error) {
	_, err := c.Stat(ctx, key)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, backend.ErrNotFound) {
		return false, nil
	}
	return false, err
}

// Stat describes the artifact stored under key via a HEAD request.
func (c *Client) Stat(ctx context.Context, key string) (backend.KeyInfo, error) {
	if err := backend.CheckKey(key); err != nil {
		return backend.KeyInfo{}, err
	}
	var out backend.KeyInfo
	err := c.do(ctx, func() error {
		resp, err := wire.Do(ctx, c.hc, http.MethodHead, c.artifactURL(key), nil, nil, wire.Limit(0))
		if err != nil {
			return err
		}
		switch resp.Status {
		case http.StatusOK:
		case http.StatusNotFound:
			return fmt.Errorf("%w: %s", backend.ErrNotFound, key)
		default:
			return fmt.Errorf("store: HEAD %s: %w", key, resp.Err())
		}
		size, _ := strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64)
		var mod time.Time
		if ns, err := strconv.ParseInt(resp.Header.Get(modTimeHeader), 10, 64); err == nil {
			mod = time.Unix(0, ns)
		}
		out = backend.KeyInfo{
			Key:     key,
			Bytes:   size,
			ModTime: mod,
			ETag:    strings.Trim(resp.Header.Get("ETag"), `"`),
		}
		return nil
	})
	return out, err
}

// catalogDoc is the catalog listing's JSON wire form.
type catalogDoc struct {
	Artifacts []catalogEntry `json:"artifacts"`
}

type catalogEntry struct {
	Key     string `json:"key"`
	Bytes   int64  `json:"bytes"`
	ModTime int64  `json:"mod_time_unix_ns"`
	ETag    string `json:"etag"`
}

// List enumerates the stored artifacts via the catalog endpoint. The
// server's ETag is replayed as If-None-Match, so an unchanged catalog
// costs a 304 and no body.
func (c *Client) List(ctx context.Context) ([]backend.KeyInfo, error) {
	c.mu.Lock()
	etag := c.catalogETag
	c.mu.Unlock()
	var hdr http.Header
	if etag != "" {
		hdr = http.Header{"If-None-Match": {`"` + etag + `"`}}
	}
	var out []backend.KeyInfo
	err := c.do(ctx, func() error {
		resp, err := wire.Do(ctx, c.hc, http.MethodGet, c.base+Prefix+"/catalog", hdr, nil, wire.Limit(maxReplyBytes))
		if err != nil {
			return err
		}
		switch resp.Status {
		case http.StatusNotModified:
			obsCatalog304.Add(1)
			c.mu.Lock()
			out = append(out[:0], c.catalog...)
			c.mu.Unlock()
			return nil
		case http.StatusOK:
		default:
			return fmt.Errorf("store: GET catalog: %w", resp.Err())
		}
		var doc catalogDoc
		if err := json.Unmarshal(resp.Body, &doc); err != nil {
			return fmt.Errorf("store: catalog body: %w", err)
		}
		out = out[:0]
		for _, e := range doc.Artifacts {
			out = append(out, backend.KeyInfo{
				Key: e.Key, Bytes: e.Bytes, ModTime: time.Unix(0, e.ModTime), ETag: e.ETag,
			})
		}
		c.mu.Lock()
		c.catalogETag = strings.Trim(resp.Header.Get("ETag"), `"`)
		c.catalog = append(c.catalog[:0:0], out...)
		c.mu.Unlock()
		return nil
	})
	return out, err
}

// Delete removes the artifact stored under key; a missing key is not an
// error.
func (c *Client) Delete(ctx context.Context, key string) error {
	return c.delete(ctx, key, false)
}

// Quarantine asks the server to move the damaged artifact out of the
// addressable namespace while keeping its bytes for post-mortem.
func (c *Client) Quarantine(ctx context.Context, key string) error {
	return c.delete(ctx, key, true)
}

func (c *Client) delete(ctx context.Context, key string, quarantine bool) error {
	if err := backend.CheckKey(key); err != nil {
		return err
	}
	url := c.artifactURL(key)
	if quarantine {
		url += "?quarantine=1"
	}
	return c.do(ctx, func() error {
		resp, err := wire.Do(ctx, c.hc, http.MethodDelete, url, nil, nil, wire.Limit(maxReplyBytes))
		if err != nil {
			return err
		}
		switch resp.Status {
		case http.StatusNoContent, http.StatusOK, http.StatusNotFound:
			return nil
		default:
			return fmt.Errorf("store: DELETE %s: %w", key, resp.Err())
		}
	})
}

var _ backend.Interface = (*Client)(nil)
