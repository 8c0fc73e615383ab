package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mbavf"
	"mbavf/internal/obs"
	"mbavf/internal/serve"
	"mbavf/internal/store/disk"
	"mbavf/internal/store/httpstore"
)

// coldArms are the three ways a fresh server gets its run, one workload
// each: record (empty disk store: simulate, encode, Put), reload (disk
// store recorded in setup: store reads) and remote (httpstore client to
// an artifact server on loopback over that store: ranged transfer).
var coldArms = []string{"record", "reload", "remote"}

// coldQuery is the one query every cold server answers.
func coldQuery(program string) serve.AVFQuery {
	return serve.AVFQuery{Workload: program, Structure: "l1", Scheme: "parity", Style: "way-physical", Factor: 2, ModeBits: 2}
}

// serveCold measures time to first answer in one arm: each sample is a
// fresh serve.Server answering coldQuery. A round is every program in a
// seeded order. The work is in sim, store and the fresh server's own
// set-up; core does one small solve per sample.
type serveCold struct {
	arm      string
	seed     int64
	gold     *goldenData
	dir      string
	recorded string
	art      *httptest.Server
	n        int // fresh directories handed out
}

func (w *serveCold) fresh() string {
	w.n++
	return filepath.Join(w.dir, fmt.Sprintf("cold-%d", w.n))
}

// setup records every program into a disk store and serves it over the
// artifact protocol. The record arm reads neither; for it, recording is
// the untimed first pass through the simulate, encode and Put path.
func (w *serveCold) setup(ctx context.Context) error {
	obs.StopTrace()
	obs.Reset()
	w.recorded = w.fresh()
	b, err := disk.New(w.recorded)
	if err != nil {
		return err
	}
	rs := mbavf.NewRunStore(b)
	for _, p := range servePrograms {
		r, err := mbavf.RunWorkloadContext(ctx, p)
		if err != nil {
			return err
		}
		if err := rs.SaveContext(ctx, p, r); err != nil {
			return err
		}
	}
	mux := http.NewServeMux()
	httpstore.NewServer(b).Mount(mux)
	w.art = httptest.NewServer(mux)
	return nil
}

// answer brings up a fresh server for the arm and times its answer to
// coldQuery(program), from opening the store to the response.
func (w *serveCold) answer(ctx context.Context, program string) (serve.AVFResponse, float64, error) {
	arm := w.arm
	began := time.Now()
	var rs *mbavf.RunStore
	switch arm {
	case "record", "reload":
		dir := w.recorded
		if arm == "record" {
			dir = w.fresh()
			defer os.RemoveAll(dir)
		}
		b, err := disk.New(dir)
		if err != nil {
			return serve.AVFResponse{}, 0, err
		}
		rs = mbavf.NewRunStore(b)
	case "remote":
		// A fresh transport per sample: a new process has no warm
		// connection to the artifact server.
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		rs = mbavf.NewRunStore(httpstore.New(w.art.URL, httpstore.WithHTTPClient(&http.Client{Transport: tr})))
	}
	resp, err := firstAnswer(ctx, rs, program)
	if err != nil {
		err = fmt.Errorf("%s: %w", arm, err)
	}
	return resp, msSince(began), err
}

// firstAnswer brings up a fresh server over rs and returns its answer
// to coldQuery(program).
func firstAnswer(ctx context.Context, rs *mbavf.RunStore, program string) (serve.AVFResponse, error) {
	var out serve.AVFResponse
	srv := serve.New(serve.Config{Store: rs})
	defer func() { _ = srv.Drain(ctx) }() // its only request has finished by then
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/avf?"+queryValues(coldQuery(program)).Encode(), nil).WithContext(ctx)
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return out, fmt.Errorf("%s: status %d: %s", program, rec.Code, rec.Body.Bytes())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return out, fmt.Errorf("%s: %w", program, err)
	}
	return out, nil
}

func (w *serveCold) run(ctx context.Context, lim limit, t *tally) error {
	rng := rand.New(rand.NewSource(w.seed))
	return lim.each(func(int) error {
		for _, i := range rng.Perm(len(servePrograms)) {
			p := servePrograms[i]
			sp := benchSpan("cold-" + w.arm)
			resp, ms, err := w.answer(ctx, p)
			sp.End()
			if err != nil {
				t.fail(1, err)
				continue
			}
			t.op(p, ms, 1)
			if want := w.gold.Cold[p]; resp.AVF != want {
				t.mismatch("%s %s: answered %+v, golden %+v", w.arm, p, resp.AVF, want)
			}
		}
		return nil
	})
}

// check has nothing left to do: every answer was compared with the
// golden answer as it arrived.
func (w *serveCold) check(context.Context, *tally) error { return nil }

// details reports each program's median time to first answer and the
// 80th percentile of its samples.
func (w *serveCold) details(t *tally) []detail {
	var out []detail
	for _, p := range servePrograms {
		s := t.samplesOf(p)
		sum := summarize(s)
		if len(s) > 0 {
			sum.TailP, sum.Tail = 80, quantile(sortedCopy(s), 0.8)
		}
		out = append(out, detail{Name: "cold_" + w.arm + "_" + p + "_ms", Value: sum.P50, Unit: "ms", summary: sum})
	}
	return out
}

func (w *serveCold) close() {
	if w.art != nil {
		w.art.Close()
		w.art = nil
	}
	if w.recorded != "" {
		os.RemoveAll(w.recorded)
		w.recorded = ""
	}
}
