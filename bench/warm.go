package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbavf"
	"mbavf/internal/obs"
	"mbavf/internal/serve"
)

// servePrograms are the programs the serving workloads query.
var servePrograms = []string{"minife", "matmul", "srad", "histogram", "kmeans", "dct"}

const (
	warmClients  = 2
	recentWindow = 32
	batchSize    = 8
	checkSamples = 64
)

// kindBlock is serve-warm's request mix, dealt in shuffled blocks so
// every stretch of a client's requests holds it almost exactly: a
// quarter repeat one of the client's last recentWindow AVF queries, a
// guaranteed result-cache hit, and the rest split 85/10/5 over unique
// AVF queries, 8-query batches and SER queries. The mix is assumed, not
// taken from traffic: the repository holds no serving logs. The hit
// share is fixed by construction rather than left to a popularity
// distribution (a Zipf mix measured 44-56% hits).
var kindBlock = map[string]int{"avf-hit": 20, "avf": 51, "batch": 6, "ser": 3}

// warmTrim is the share of the fastest and of the slowest requests that
// serve-warm's latency leaves out.
const warmTrim = 0.1

// queryFactors and queryModes span the AVF query space with the
// structures' styles and the four schemes: 6 programs x 8 (structure,
// style) pairs x 4 schemes x 3 factors x 4 modes = 2304 points. SER
// queries roll up kmeans' register file: 2 styles x 4 schemes x 3
// factors = 24 points of 50 to 110 ms each. Over minife's, the paper's
// case study, one SER takes 0.3 to 0.8 s, so the few a run sends took a
// third of its time and their draw moved the run's throughput.
var (
	queryFactors = []int{1, 2, 4}
	queryModes   = []int{1, 2, 4, 8}
)

// strata splits a query space by (program, structure, style), the
// dimensions that set most of a query's cost; each stratum holds every
// (scheme, factor, mode) point, or every (scheme, factor) point when
// modes is empty (a SER space).
func strata(programs []string, structures []mbavf.Structure, modes []int) [][]serve.AVFQuery {
	var out [][]serve.AVFQuery
	for _, p := range programs {
		for _, st := range structures {
			for _, style := range st.Styles() {
				var s []serve.AVFQuery
				for _, sch := range mbavf.Schemes() {
					for _, f := range queryFactors {
						q := serve.AVFQuery{Workload: p, Structure: string(st), Scheme: string(sch), Style: string(style), Factor: f}
						if len(modes) == 0 {
							s = append(s, q)
						}
						for _, m := range modes {
							q.ModeBits = m
							s = append(s, q)
						}
					}
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// shuffleStrata shuffles every stratum in place.
func shuffleStrata(rng *rand.Rand, strata [][]serve.AVFQuery) {
	for _, s := range strata {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
}

// deal returns client c's half of every (shuffled) stratum as one
// stream. Cycle k draws the k-th point of each of the client's stratum
// halves once, ordered so that every few consecutive draws cover all
// (structure, style) pairs while the programs rotate, under program and
// pair labels permuted per cycle. Any stretch of the stream, even the
// few SER queries of one run, so holds nearly the same mix of query
// costs: a seed changes which points come when, not the mix.
func deal(rng *rand.Rand, strata [][]serve.AVFQuery, nP, c int) []serve.AVFQuery {
	nS := len(strata) / nP // strata are indexed program*nS + pair
	n := len(strata[0]) / warmClients
	var out []serve.AVFQuery
	for k := range n {
		progs, pairs := rng.Perm(nP), rng.Perm(nS)
		for j := range len(strata) {
			a, b := j/nS, j%nS
			out = append(out, strata[progs[(a+b)%nP]*nS+pairs[b]][c*n+k])
		}
	}
	return out
}

func queryValues(q serve.AVFQuery) url.Values {
	v := url.Values{}
	v.Set("workload", q.Workload)
	v.Set("structure", q.Structure)
	v.Set("scheme", q.Scheme)
	v.Set("style", q.Style)
	v.Set("factor", strconv.Itoa(q.Factor))
	if q.ModeBits > 0 {
		v.Set("mode", strconv.Itoa(q.ModeBits))
	}
	return v
}

// serveWarm is a closed loop of warmClients clients against an
// in-process serve.Server behind httptest whose run cache holds every
// program: the work is in serve and core, with zero simulations.
type serveWarm struct {
	seed    int64
	gold    *goldenData
	srv     *serve.Server
	ts      *httptest.Server
	hc      *http.Client
	clients []*warmClient
}

// warmClient is one closed-loop client: its own seeded request stream
// over its half of the query space, and a reservoir of answers kept for
// the direct cross-check.
type warmClient struct {
	rng     *rand.Rand // request stream: depends on the seed only
	pick    *rand.Rand // answer reservoir
	avf     []serve.AVFQuery
	ser     []serve.AVFQuery
	nextAVF int
	nextSER int
	kinds   []string // rest of the current kindBlock
	recent  []serve.AVFQuery
	seen    int
	sampled []warmAnswer
}

// warmAnswer is one answer the server gave: an AVF value, or a SER roll-up.
type warmAnswer struct {
	q   serve.AVFQuery
	ser bool
	avf serve.AVFValue
	sdc float64
	due float64
}

func (w *serveWarm) setup(ctx context.Context) error {
	obs.StopTrace()
	obs.Reset()
	// serve.New enables the observability layer, as mbavf-serve runs.
	w.srv = serve.New(serve.Config{})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: warmClients}}
	for _, p := range servePrograms {
		// Mode 3 lies outside the query space, so warming the run cache
		// leaves the result cache without any measured query.
		q := serve.AVFQuery{Workload: p, Structure: "l1", Scheme: "parity", Style: "logical", Factor: 1, ModeBits: 3}
		if _, err := w.get(ctx, "/api/v1/avf", q); err != nil {
			return fmt.Errorf("warming %s: %w", p, err)
		}
	}
	avfs := strata(servePrograms, mbavf.Structures(), queryModes)
	sers := strata([]string{"kmeans"}, []mbavf.Structure{mbavf.VGPR}, nil)
	rng := rand.New(rand.NewSource(w.seed))
	shuffleStrata(rng, avfs)
	shuffleStrata(rng, sers)
	w.clients = nil
	for c := range warmClients {
		crng := rand.New(rand.NewSource(w.seed*warmClients + int64(c) + 1))
		w.clients = append(w.clients, &warmClient{
			rng:  crng,
			pick: rand.New(rand.NewSource(-w.seed*warmClients - int64(c) - 1)),
			avf:  deal(crng, avfs, len(servePrograms), c),
			ser:  deal(crng, sers, 1, c),
		})
	}
	return nil
}

// nextKind deals the client's next request kind from its shuffled
// kindBlock.
func (c *warmClient) nextKind() string {
	if len(c.kinds) == 0 {
		for _, k := range []string{"avf-hit", "avf", "batch", "ser"} {
			for range kindBlock[k] {
				c.kinds = append(c.kinds, k)
			}
		}
		c.rng.Shuffle(len(c.kinds), func(i, j int) { c.kinds[i], c.kinds[j] = c.kinds[j], c.kinds[i] })
	}
	k := c.kinds[0]
	c.kinds = c.kinds[1:]
	if k == "avf-hit" && len(c.recent) == 0 {
		return "avf" // nothing to repeat yet
	}
	return k
}

// get sends one GET and returns the body of a 200 response.
func (w *serveWarm) get(ctx context.Context, path string, q serve.AVFQuery) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+path+"?"+queryValues(q).Encode(), nil)
	if err != nil {
		return nil, err
	}
	return w.do(req)
}

func (w *serveWarm) do(req *http.Request) ([]byte, error) {
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// draw takes the next n unique AVF queries of the client's stream, or
// reports that fewer are left. A stream never wraps around: a repeated
// query would be a result-cache hit, and the hit share would grow as
// the server got faster.
func (c *warmClient) draw(n int) ([]serve.AVFQuery, bool) {
	if c.nextAVF+n > len(c.avf) {
		return nil, false
	}
	c.nextAVF += n
	return c.avf[c.nextAVF-n : c.nextAVF], true
}

// used is the larger share of the client's AVF and SER streams that
// its requests have drawn.
func (c *warmClient) used() float64 {
	return max(float64(c.nextAVF)/float64(len(c.avf)), float64(c.nextSER)/float64(len(c.ser)))
}

func (c *warmClient) remember(q serve.AVFQuery) {
	c.recent = append(c.recent, q)
	if len(c.recent) > recentWindow {
		c.recent = c.recent[1:]
	}
}

// keep offers an answer to the client's reservoir.
func (c *warmClient) keep(a warmAnswer) {
	c.seen++
	if len(c.sampled) < checkSamples/warmClients {
		c.sampled = append(c.sampled, a)
	} else if i := c.pick.Intn(c.seen); i < len(c.sampled) {
		c.sampled[i] = a
	}
}

// run drives the clients until the limit, or until one client's stream
// of unique queries runs out: both then stop, so the request mix holds
// at any server speed. At today's speed a 10 s run draws under half of
// each stream (warm_stream_used).
func (w *serveWarm) run(ctx context.Context, lim limit, t *tally) error {
	var wg sync.WaitGroup
	var ended atomic.Bool
	for _, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; lim.more(n) && !ended.Load(); n++ {
				if !w.request(ctx, c, t) {
					ended.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// request sends the client's next request and records it. It reports
// false, sending nothing, when the client's stream has run out.
func (w *serveWarm) request(ctx context.Context, c *warmClient, t *tally) bool {
	kind := c.nextKind()
	var (
		req     *http.Request
		err     error
		queries []serve.AVFQuery
		ok      = true
	)
	switch kind {
	case "avf-hit":
		queries = []serve.AVFQuery{c.recent[c.rng.Intn(len(c.recent))]}
	case "avf":
		if queries, ok = c.draw(1); ok {
			c.remember(queries[0])
		}
	case "batch":
		queries, ok = c.draw(batchSize)
	case "ser":
		if ok = c.nextSER < len(c.ser); ok {
			queries = []serve.AVFQuery{c.ser[c.nextSER]}
			c.nextSER++
		}
	}
	if !ok {
		return false
	}
	switch kind {
	case "batch":
		body, _ := json.Marshal(struct {
			Queries []serve.AVFQuery `json:"queries"`
		}{queries})
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, w.ts.URL+"/api/v1/avf/batch", bytes.NewReader(body))
	case "ser":
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+"/api/v1/ser?"+queryValues(queries[0]).Encode(), nil)
	default:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+"/api/v1/avf?"+queryValues(queries[0]).Encode(), nil)
	}
	if err != nil {
		t.fail(1, err)
		return true
	}
	sp := benchSpan("request")
	began := time.Now()
	body, err := w.do(req)
	ms := msSince(began)
	sp.End()
	if err != nil {
		t.fail(1, err)
		return true
	}
	var answers []warmAnswer
	cached := 0
	switch kind {
	case "batch":
		var out struct {
			Results []serve.BatchItem `json:"results"`
		}
		if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != len(queries) {
			t.fail(1, fmt.Errorf("batch: bad response (%v): %.200s", err, body))
			return true
		}
		for _, it := range out.Results {
			if it.Result == nil {
				t.fail(1, fmt.Errorf("batch item: %s", it.Error))
				return true
			}
			answers = append(answers, warmAnswer{q: it.Result.AVFQuery, avf: it.Result.AVF})
			if it.Result.Cached {
				cached++
			}
		}
	case "ser":
		var out serve.SERResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.fail(1, fmt.Errorf("ser: %w", err))
			return true
		}
		answers = append(answers, warmAnswer{q: out.AVFQuery, ser: true, sdc: out.SDCFit, due: out.DUEFit})
		if out.Cached {
			cached++
		}
	default:
		var out serve.AVFResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.fail(1, fmt.Errorf("avf: %w", err))
			return true
		}
		answers = append(answers, warmAnswer{q: out.AVFQuery, avf: out.AVF})
		if out.Cached {
			cached++
		}
	}
	for i, a := range answers {
		if a.q != queries[i] {
			t.mismatch("%s: answer for %+v, asked %+v", kind, a.q, queries[i])
		}
		c.keep(a)
	}
	class := kind
	if kind == "avf" {
		class = "avf:" + queries[0].Structure
	}
	t.op(class, ms, 1)
	t.count("answers", len(answers))
	t.count("cached", cached)
	return true
}

// check recomputes the sampled answers directly with Run.AVF and
// Run.SER on fresh simulations and requires equal values; the result
// cache's flags and the server's timings are not compared.
func (w *serveWarm) check(ctx context.Context, t *tally) error {
	// The server has answered everything; its runs must not add to the
	// fresh simulations' memory.
	w.close()
	var sampled []warmAnswer
	for _, c := range w.clients {
		sampled = append(sampled, c.sampled...)
	}
	runs, err := simulatePrograms(ctx, servePrograms, w.gold, t)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	next := make(chan warmAnswer)
	for range warmClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range next {
				checkAnswer(runs[a.q.Workload], a, t)
			}
		}()
	}
	for _, a := range sampled {
		next <- a
	}
	close(next)
	wg.Wait()
	return nil
}

func checkAnswer(run *mbavf.Run, a warmAnswer, t *tally) {
	st, scheme := mbavf.Structure(a.q.Structure), mbavf.Scheme(a.q.Scheme)
	il := mbavf.Interleaving{Style: mbavf.Style(a.q.Style), Factor: a.q.Factor}
	if a.ser {
		s, err := run.SER(st, scheme, il)
		if err != nil {
			t.mismatch("direct SER %+v: %v", a.q, err)
		} else if s.SDC != a.sdc || s.DUE != a.due {
			t.mismatch("SER %+v: served sdc=%v due=%v, direct sdc=%v due=%v", a.q, a.sdc, a.due, s.SDC, s.DUE)
		}
		return
	}
	v, err := run.AVF(st, scheme, il, a.q.ModeBits)
	if err != nil {
		t.mismatch("direct AVF %+v: %v", a.q, err)
	} else if direct := avfValue(v); direct != a.avf {
		t.mismatch("AVF %+v: served %+v, direct %+v", a.q, a.avf, direct)
	}
}

func avfValue(a mbavf.AVF) serve.AVFValue {
	return serve.AVFValue{DUE: a.DUE, SDC: a.SDC, TrueDUE: a.TrueDUE, FalseDUE: a.FalseDUE,
		SBAVF: a.SBAVF, SBAVFLive: a.SBAVFLive, Groups: a.Groups, Cycles: a.Cycles}
}

// simulatePrograms runs each program afresh, checking its cycle and
// instruction counts against the golden counts.
func simulatePrograms(ctx context.Context, programs []string, gold *goldenData, t *tally) (map[string]*mbavf.Run, error) {
	runs := map[string]*mbavf.Run{}
	for _, p := range programs {
		r, err := mbavf.RunWorkloadContext(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", p, err)
		}
		g := gold.Programs[p]
		if r.Cycles() != g.Cycles || r.Instructions() != g.Instructions {
			t.mismatch("%s: %d cycles, %d instructions; golden %d, %d", p, r.Cycles(), r.Instructions(), g.Cycles, g.Instructions)
		}
		runs[p] = r
	}
	return runs, nil
}

// latency is the mean of the middle 80% of request latencies. The
// requests fall into cost classes from 0.1 ms (a hit) to half a second
// (a batch) with gaps between them, and the median lands where two
// classes meet: from run to run it moved by a quarter while throughput
// held within 7%.
func (w *serveWarm) latency(lat []float64) float64 { return trimmedMean(lat, warmTrim) }

func (w *serveWarm) details(t *tally) []detail {
	all := summarize(t.all())
	out := []detail{{Name: "warm_p50_ms", Value: all.P50, Unit: "ms", summary: all}}
	for _, k := range []string{"avf-hit", "avf:l1", "avf:l2", "avf:vgpr", "batch", "ser"} {
		s := summarize(t.samplesOf(k))
		out = append(out, detail{Name: "warm_" + strings.ReplaceAll(k, ":", "_") + "_p50_ms", Value: s.P50, Unit: "ms", summary: s})
	}
	if a := t.counts["answers"]; a > 0 {
		out = append(out, detail{Name: "warm_hit_ratio", Value: float64(t.counts["cached"]) / float64(a), Unit: "ratio", summary: summary{N: a}})
	}
	used := 0.0
	for _, c := range w.clients {
		used = max(used, c.used())
	}
	return append(out, detail{Name: "warm_stream_used", Value: used, Unit: "ratio"})
}

func (w *serveWarm) close() {
	if w.ts != nil {
		w.ts.Close()
		w.hc.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = w.srv.Drain(ctx) // every request has finished; nothing can be cut short
		w.ts, w.srv = nil, nil
	}
}
