package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"mbavf/internal/inject"
	"mbavf/internal/wire"
)

// FuzzLeaseCreate feeds arbitrary bytes, with or without a checksum, to
// the worker's lease POST. It must never panic, must answer 202, 400 or
// 413, and may accept (202) only a body that passes Validate. The
// resolver fails, so an accepted lease fails at once instead of running.
func FuzzLeaseCreate(f *testing.F) {
	valid, _ := json.Marshal(LeaseRequest{ID: "shots:w:7:4:0-4", Kind: KindShots, Workload: "w", Seed: 7, Start: 0, End: 4})
	f.Add(valid, wire.Checksum(valid))
	f.Add(valid, "")
	f.Add(valid, "feedface")
	f.Add([]byte(`{"id":"a","kind":"avf","queries":[{"workload":"w"}]}`), "")
	f.Add([]byte(`{"id":"a","kind":"shots","workload":"w","start":3,"end":1}`), "")
	f.Add([]byte(`{"id":`), "")
	f.Fuzz(func(t *testing.T, body []byte, sum string) {
		w := NewWorker(WorkerConfig{Campaigns: func(string) (*inject.Campaign, error) {
			return nil, errors.New("no campaigns in this test")
		}})
		defer w.Close()
		r := httptest.NewRequest(http.MethodPost, PathLease, bytes.NewReader(body))
		if sum != "" {
			r.Header.Set(wire.ChecksumHeader, sum)
		}
		rec := httptest.NewRecorder()
		w.handleCreate(rec, r)
		switch rec.Code {
		case http.StatusAccepted:
			var req LeaseRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || req.Validate() != nil {
				t.Fatalf("202 for a lease that does not validate: %q", body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
	})
}
