package httpstore_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mbavf/internal/store/backend"
	"mbavf/internal/store/httpstore"
	"mbavf/internal/store/mem"
	"mbavf/internal/store/storetest"
	"mbavf/internal/wire"
)

// newServer mounts the artifact protocol over a fresh mem backend and
// returns the backing store plus a client over real HTTP.
func newServer(t *testing.T, opts ...httpstore.Option) (*mem.Backend, *httpstore.Client) {
	t.Helper()
	mb := mem.New()
	mux := http.NewServeMux()
	httpstore.NewServer(mb).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return mb, httpstore.New(srv.URL, opts...)
}

// TestConformance proves the client+server pair satisfies the same
// backend contract as a local directory: the fleet-shared store is not
// a second, weaker kind of store.
func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) backend.Interface {
		_, c := newServer(t)
		return c
	})
}

const testKey = "0123456789abcdef0123456789abcdef"

func TestQuarantineReachesServer(t *testing.T) {
	ctx := context.Background()
	mb, c := newServer(t)
	if err := c.Put(ctx, testKey, []byte("damaged")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quarantine(ctx, testKey); err != nil {
		t.Fatal(err)
	}
	if has, _ := c.Has(ctx, testKey); has {
		t.Error("quarantined key still addressable through the client")
	}
	if data, ok := mb.Quarantined(testKey); !ok || string(data) != "damaged" {
		t.Errorf("server-side quarantine = (%q, %v), want the original bytes", data, ok)
	}
}

// TestRangeReads pins both section-read paths: a protocol-speaking
// server answers 206 with just the slice; a naive server that ignores
// Range (answers 200 with the whole blob) still yields correct bytes
// because the client slices locally.
func TestRangeReads(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 13)
	}

	_, c := newServer(t)
	if err := c.Put(ctx, testKey, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadSection(ctx, testKey, 100, 50)
	if err != nil {
		t.Fatalf("ReadSection over 206: %v", err)
	}
	if !bytes.Equal(got, data[100:150]) {
		t.Error("ReadSection over 206 returned wrong bytes")
	}

	// A server that never honors Range.
	naive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}))
	defer naive.Close()
	nc := httpstore.New(naive.URL)
	got, err = nc.ReadSection(ctx, testKey, 100, 50)
	if err != nil {
		t.Fatalf("ReadSection over naive 200: %v", err)
	}
	if !bytes.Equal(got, data[100:150]) {
		t.Error("ReadSection over naive 200 returned wrong bytes")
	}
}

// TestRangeReadBounded: a server that answers a small Range with an
// endless 206 body costs the client a byte past the range, not the
// stream. The transport stops feeding the client at 1 MiB so an
// unbounded reader fails the test instead of hanging it.
func TestRangeReadBounded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusPartialContent)
		chunk := make([]byte, 4096)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	var consumed atomic.Int64
	tr := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := srv.Client().Transport.RoundTrip(r)
		if err == nil {
			resp.Body = &cappedBody{ReadCloser: resp.Body, n: &consumed}
		}
		return resp, err
	})
	c := httpstore.New(srv.URL, httpstore.WithHTTPClient(&http.Client{Transport: tr}), httpstore.WithRetry(3, time.Millisecond))
	if _, err := c.ReadSection(context.Background(), testKey, 0, 16); err == nil {
		t.Error("ReadSection accepted an endless 206 body")
	}
	if n := consumed.Load(); n >= 64<<10 {
		t.Errorf("ReadSection of 16 bytes consumed %d bytes of the body", n)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// cappedBody counts the body bytes its reader consumes and ends the
// body with an error at 1 MiB.
type cappedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *cappedBody) Read(p []byte) (int, error) {
	if b.n.Load() >= 1<<20 {
		return 0, errors.New("test transport: 1 MiB read")
	}
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// TestPutRetriesChecksumReject pins the upload-integrity loop: a server
// that rejects the first upload as transit-damaged (400 mentioning
// "checksum") gets a retried PUT, and the operation succeeds.
func TestPutRetriesChecksumReject(t *testing.T) {
	var puts atomic.Int64
	mb := mem.New()
	inner := http.NewServeMux()
	httpstore.NewServer(mb).Mount(inner)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && puts.Add(1) == 1 {
			io.Copy(io.Discard, r.Body)
			http.Error(w, "body checksum mismatch (transport damage)", http.StatusBadRequest)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := httpstore.New(srv.URL, httpstore.WithRetry(3, time.Millisecond))
	if err := c.Put(context.Background(), testKey, []byte("payload")); err != nil {
		t.Fatalf("Put with one checksum reject: %v", err)
	}
	if got := puts.Load(); got != 2 {
		t.Errorf("server saw %d PUTs, want 2 (reject + retry)", got)
	}
	if data, err := mb.Get(context.Background(), testKey); err != nil || string(data) != "payload" {
		t.Errorf("backend holds (%q, %v) after retried PUT", data, err)
	}
}

// TestCatalogConditionalFetch pins the 304 path: an unchanged catalog
// replays the cached listing; a change (new artifact) invalidates it.
func TestCatalogConditionalFetch(t *testing.T) {
	ctx := context.Background()
	_, c := newServer(t)
	if err := c.Put(ctx, testKey, []byte("one")); err != nil {
		t.Fatal(err)
	}
	first, err := c.List(ctx)
	if err != nil || len(first) != 1 {
		t.Fatalf("List = (%d entries, %v), want 1", len(first), err)
	}
	// Second fetch: the server answers 304 and the client replays.
	second, err := c.List(ctx)
	if err != nil || len(second) != 1 || second[0].Key != testKey {
		t.Fatalf("conditional List = (%v, %v)", second, err)
	}
	other := "fedcba9876543210fedcba9876543210"
	if err := c.Put(ctx, other, []byte("two")); err != nil {
		t.Fatal(err)
	}
	third, err := c.List(ctx)
	if err != nil || len(third) != 2 {
		t.Fatalf("List after change = (%d entries, %v), want 2", len(third), err)
	}
}

// TestChaosTransport drives the client through wire's fault-injecting
// transport: dropped connections, injected 503s, and bit-flipped
// response bodies. Every operation must still converge to the correct
// bytes — drops and 5xx through retry, corruption through the checksum
// header — with a seeded RNG so the run is reproducible.
func TestChaosTransport(t *testing.T) {
	ctx := context.Background()
	mb := mem.New()
	mux := http.NewServeMux()
	httpstore.NewServer(mb).Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	chaos := wire.NewChaosTransport(wire.ChaosConfig{
		Seed:        7,
		DropRequest: 0.10,
		Err5xx:      0.10,
		Corrupt:     0.10,
	}, srv.Client().Transport)
	c := httpstore.New(srv.URL,
		httpstore.WithHTTPClient(&http.Client{Transport: chaos}),
		httpstore.WithRetry(10, time.Millisecond))

	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	for round := 0; round < 30; round++ {
		if err := c.Put(ctx, testKey, payload); err != nil {
			t.Fatalf("round %d: Put under chaos: %v", round, err)
		}
		got, err := c.Get(ctx, testKey)
		if err != nil {
			t.Fatalf("round %d: Get under chaos: %v", round, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: Get under chaos returned damaged bytes", round)
		}
		sec, err := c.ReadSection(ctx, testKey, 512, 256)
		if err != nil {
			t.Fatalf("round %d: ReadSection under chaos: %v", round, err)
		}
		if !bytes.Equal(sec, payload[512:768]) {
			t.Fatalf("round %d: ReadSection under chaos returned damaged bytes", round)
		}
	}
	injected := chaos.Injected()
	if injected["drop_request"] == 0 && injected["err_5xx"] == 0 && injected["corrupt"] == 0 {
		t.Errorf("chaos injected nothing (%v); the test proved nothing", injected)
	}
}
