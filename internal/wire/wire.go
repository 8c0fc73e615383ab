// Package wire is the one HTTP transport behind the fabric's /fabric/v1
// leases, the artifact store's /store/v1 and the analysis service. It
// owns every decision the three protocols share: the body checksum, the
// per-attempt deadline, the bounds on body reads, which failures are
// worth retrying and how long to wait before a retry, the server read
// timeouts, and the fault-injecting transport the tests run them under.
//
// It imports only the standard library, so every package here —
// internal/obs included — can use it.
package wire

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ChecksumHeader carries the hex sha256 of a body as sent. Clients set
// it on every request body; servers set it on lease, artifact and
// catalog responses. A receiver verifies it before decoding, so a
// flipped bit anywhere between the two ends is caught.
const ChecksumHeader = "X-Mbavf-Checksum"

// Checksum returns the hex sha256 of body, the value of ChecksumHeader.
func Checksum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// ErrChecksum marks a body that does not hash to its ChecksumHeader:
// damage in transit, which a retry can cure. Its text names "checksum",
// which is how a client recognises a server's 400 for a damaged upload.
var ErrChecksum = errors.New("body checksum mismatch (transport damage)")

// verify checks body against the checksum in h, when h carries one.
func verify(h http.Header, body []byte) error {
	if want := h.Get(ChecksumHeader); want != "" && Checksum(body) != want {
		return ErrChecksum
	}
	return nil
}

// attemptTimeout bounds one request attempt, from sending the request
// to reading the last body byte. It applies through the request's
// context, so it also holds when the caller supplies its own
// *http.Client.
var attemptTimeout = 10 * time.Second

// Response is one completed round trip with its body read.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// Do makes one attempt of a request under the attempt deadline. A
// non-nil body is sent with its checksum in ChecksumHeader; hdr adds
// headers. Do reads at most limit(status) bytes of the response body —
// a longer body fails after limit+1 bytes instead of being read whole —
// and verifies the body when it carries ChecksumHeader. It returns an
// error only when no intact response arrived: the caller decides what
// each status means, and turns one it does not handle into an error
// with Response.Err.
func Do(ctx context.Context, hc *http.Client, method, url string, hdr http.Header, body []byte, limit func(status int) int64) (*Response, error) {
	ctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[http.CanonicalHeaderKey(k)] = vs
	}
	if body != nil {
		req.Header.Set(ChecksumHeader, Checksum(body))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, netError{err}
	}
	defer resp.Body.Close()
	n := limit(resp.StatusCode)
	data, err := io.ReadAll(io.LimitReader(resp.Body, n+1))
	if err != nil {
		return nil, netError{fmt.Errorf("%s %s: reading response: %w", method, url, err)}
	}
	if int64(len(data)) > n {
		return nil, fmt.Errorf("%s %s: response body exceeds %d bytes", method, url, n)
	}
	if err := verify(resp.Header, data); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return &Response{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}

// Limit is the body bound of a caller that reads every status alike.
func Limit(n int64) func(int) int64 { return func(int) int64 { return n } }

// netError marks a request that never produced a complete response: a
// refused or reset connection, or an attempt past its deadline.
type netError struct{ error }

func (e netError) Unwrap() error { return e.error }

// statusError is a response status its caller does not handle.
type statusError struct {
	Status int
	Body   string
}

// Err returns r as an error, for a status the caller does not
// handle.
func (r *Response) Err() error {
	return &statusError{Status: r.Status, Body: strings.TrimSpace(string(r.Body))}
}

func (e *statusError) Error() string {
	if e.Body == "" {
		return fmt.Sprintf("status %d", e.Status)
	}
	return fmt.Sprintf("status %d: %s", e.Status, e.Body)
}

// Unwrap reports a 400 that names "checksum" as ErrChecksum: the server
// found the request body damaged.
func (e *statusError) Unwrap() error {
	if e.Status == http.StatusBadRequest && strings.Contains(e.Body, "checksum") {
		return ErrChecksum
	}
	return nil
}

// Transient reports whether a retry may succeed: network errors and
// expired attempts, 5xx, 429, and a checksum mismatch on either end.
// Every other error is permanent.
func Transient(err error) bool {
	if errors.Is(err, ErrChecksum) || errors.As(err, new(netError)) {
		return true
	}
	var se *statusError
	return errors.As(err, &se) && (se.Status >= 500 || se.Status == http.StatusTooManyRequests)
}

// Backoff waits before retry k (k = 0 before the first retry): base<<k,
// capped at ceiling, with ±50% jitter so a fleet's retries spread out.
// It returns ctx's error if ctx ends first.
func Backoff(ctx context.Context, k int, base, ceiling time.Duration) error {
	d := base << min(k, 16)
	if d < 0 || d > ceiling {
		d = ceiling
	}
	t := time.NewTimer(time.Duration(float64(d) * (0.5 + rand.Float64())))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BodyError is a request body a server refuses: Status is 413 for a
// body over the server's cap and 400 for a damaged or malformed one.
type BodyError struct {
	Status int
	Err    error
}

func (e *BodyError) Error() string { return e.Err.Error() }
func (e *BodyError) Unwrap() error { return e.Err }

// ReadBody reads r's body, at most limit bytes, and verifies it when
// the request carries ChecksumHeader. Every error is a *BodyError.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return nil, &BodyError{http.StatusRequestEntityTooLarge, fmt.Errorf("reading body: %w", err)}
	case err != nil:
		return nil, &BodyError{http.StatusBadRequest, fmt.Errorf("reading body: %w", err)}
	}
	if err := verify(r.Header, body); err != nil {
		return nil, &BodyError{http.StatusBadRequest, err}
	}
	return body, nil
}

// DecodeJSON decodes the first JSON value of r's body into v, through
// ReadBody. Every error is a *BodyError.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	body, err := ReadBody(w, r, limit)
	if err != nil {
		return err
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return &BodyError{http.StatusBadRequest, fmt.Errorf("decoding body: %w", err)}
	}
	return nil
}

// WriteJSON writes v as compact JSON with its checksum.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	WriteBytes(w, status, append(data, '\n'))
}

// WriteBytes writes body with its Content-Length and checksum.
func WriteBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set(ChecksumHeader, Checksum(body))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// NewServer returns a server for h with read deadlines, so a client
// that trickles its request (a slow-loris) cannot pin a connection: 10s
// for the headers and 30s for the whole request. Response writing stays
// unbounded — a synchronous AVF query may compute for minutes before
// its first byte, and a pprof capture streams for as long as it asks.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
}
