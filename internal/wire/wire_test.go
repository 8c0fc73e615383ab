package wire

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestAttemptDeadline: a server that accepts a request and never
// finishes answering must not hold the client. The deadline comes from
// the request context, so it holds for a caller's own *http.Client
// with no Timeout of its own.
func TestAttemptDeadline(t *testing.T) {
	defer func(d time.Duration) { attemptTimeout = d }(attemptTimeout)
	attemptTimeout = 100 * time.Millisecond

	for _, tc := range []struct {
		name    string
		handler func(w http.ResponseWriter)
	}{
		{"silent", func(http.ResponseWriter) {}},
		{"stalled body", func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("partial"))
			w.(http.Flusher).Flush()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.handler(w)
				select {
				case <-release:
				case <-r.Context().Done():
				}
			}))
			defer srv.Close()
			defer close(release)

			done := make(chan error, 1)
			go func() {
				_, err := Do(context.Background(), &http.Client{}, http.MethodGet, srv.URL, nil, nil, Limit(1<<10))
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) || !Transient(err) {
					t.Errorf("Do = %v, want a transient deadline error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Do still blocked on a server that never finishes answering")
			}
		})
	}
}

// TestReadBodyStatus pins how a server refuses a request body, with a
// cap small enough to exceed in a test: 413 over the cap, 400 for a
// damaged or malformed body.
func TestReadBodyStatus(t *testing.T) {
	sent := []byte(`{"seed":7}`)
	for _, tc := range []struct {
		name   string
		body   []byte
		sum    string
		limit  int64
		status int // 0: accepted
	}{
		{"intact", sent, Checksum(sent), 64, 0},
		{"unsigned", sent, "", 64, 0},
		{"over the cap", sent, Checksum(sent), 4, http.StatusRequestEntityTooLarge},
		{"damaged", []byte(`{"seed":5}`), Checksum(sent), 64, http.StatusBadRequest},
		{"malformed", []byte(`{"seed":`), "", 64, http.StatusBadRequest},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(tc.body))
		if tc.sum != "" {
			r.Header.Set(ChecksumHeader, tc.sum)
		}
		var v struct{ Seed int }
		err := DecodeJSON(httptest.NewRecorder(), r, tc.limit, &v)
		var be *BodyError
		switch {
		case tc.status == 0 && (err != nil || v.Seed != 7):
			t.Errorf("%s: DecodeJSON = %v with seed %d, want seed 7", tc.name, err, v.Seed)
		case tc.status != 0 && (!errors.As(err, &be) || be.Status != tc.status):
			t.Errorf("%s: DecodeJSON = %v, want a %d BodyError", tc.name, err, tc.status)
		}
	}
}

// TestTransient pins which failures a client retries.
func TestTransient(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{netError{errors.New("connection refused")}, true},
		{&statusError{Status: http.StatusServiceUnavailable}, true},
		{&statusError{Status: http.StatusTooManyRequests}, true},
		{&statusError{Status: http.StatusBadRequest, Body: ErrChecksum.Error()}, true},
		{ErrChecksum, true},
		{&statusError{Status: http.StatusBadRequest, Body: "malformed key"}, false},
		{&statusError{Status: http.StatusNotFound}, false},
		{errors.New("GET /x: response body exceeds 16 bytes"), false},
	} {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
