package wire

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ChaosConfig tunes a ChaosTransport. All probabilities are in [0, 1]
// and are drawn independently per request from a seeded RNG, so a chaos
// run is reproducible.
type ChaosConfig struct {
	// Seed drives the fault RNG (default 1).
	Seed int64
	// DropRequest is the probability the request never reaches the
	// server (simulated connection failure).
	DropRequest float64
	// DropResponse is the probability the request executes server-side
	// but the response is lost — the case that makes idempotent lease
	// creation mandatory.
	DropResponse float64
	// Err5xx is the probability the response is replaced with a 503.
	Err5xx float64
	// Corrupt is the probability one byte of the response body is
	// bit-flipped (what the checksum validation must catch).
	Corrupt float64
	// Delay is the probability a request is delayed by up to MaxDelay.
	Delay    float64
	MaxDelay time.Duration
}

// ChaosTransport is an http.RoundTripper that injects faults — drops,
// delays, 5xx replacements, and bit-flipped bodies — in front of a real
// transport. Tests wrap the fabric coordinator's and the artifact-store
// client's transports with it to prove both converge to bit-identical
// results under fire.
type ChaosTransport struct {
	cfg  ChaosConfig
	next http.RoundTripper

	mu  sync.Mutex
	rng *rand.Rand

	// Injected counts faults by kind, for asserting the chaos actually
	// fired.
	injected map[string]int
}

// NewChaosTransport wraps next (nil means http.DefaultTransport).
func NewChaosTransport(cfg ChaosConfig, next http.RoundTripper) *ChaosTransport {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	if next == nil {
		next = http.DefaultTransport
	}
	return &ChaosTransport{
		cfg:      cfg,
		next:     next,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		injected: make(map[string]int),
	}
}

// roll draws the per-request fault decisions under one lock acquisition
// so concurrent requests see a deterministic (if interleaving-dependent)
// fault stream.
func (t *ChaosTransport) roll() (dropReq, dropResp, err5xx, corrupt bool, delay time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dropReq = t.rng.Float64() < t.cfg.DropRequest
	dropResp = t.rng.Float64() < t.cfg.DropResponse
	err5xx = t.rng.Float64() < t.cfg.Err5xx
	corrupt = t.rng.Float64() < t.cfg.Corrupt
	if t.rng.Float64() < t.cfg.Delay {
		delay = time.Duration(t.rng.Int63n(int64(t.cfg.MaxDelay) + 1))
	}
	return
}

func (t *ChaosTransport) note(kind string) {
	t.mu.Lock()
	t.injected[kind]++
	t.mu.Unlock()
}

// Injected reports how many faults of each kind the transport has
// injected so far.
func (t *ChaosTransport) Injected() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.injected))
	for k, v := range t.injected {
		out[k] = v
	}
	return out
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	dropReq, dropResp, err5xx, corrupt, delay := t.roll()

	if delay > 0 {
		t.note("delay")
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if dropReq {
		t.note("drop_request")
		return nil, fmt.Errorf("chaos: connection refused (%s %s)", req.Method, req.URL.Path)
	}

	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}

	if dropResp {
		// The server DID execute the request; only the response dies.
		t.note("drop_response")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: connection reset reading response (%s %s)", req.Method, req.URL.Path)
	}
	if err5xx {
		t.note("err_5xx")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		body := []byte(`{"error":"chaos: injected 503"}`)
		return &http.Response{
			StatusCode:    http.StatusServiceUnavailable,
			Status:        "503 Service Unavailable",
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	if corrupt {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(body) > 0 {
			t.note("corrupt")
			t.mu.Lock()
			pos := t.rng.Intn(len(body))
			bit := byte(1) << uint(t.rng.Intn(8))
			t.mu.Unlock()
			body[pos] ^= bit
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
	}
	return resp, nil
}
