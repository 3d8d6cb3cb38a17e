package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"tycos/internal/checkpoint"
	"tycos/internal/core"
	"tycos/internal/daemon"
	"tycos/internal/obs"
	"tycos/internal/series"
)

// wireWindow and wireResponse mirror the daemon's /v1/search body, so a
// direct core.SearchContext result can be encoded into the exact bytes the
// daemon would send.
type wireWindow struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	Delay int     `json:"delay"`
	Score float64 `json:"score"`
}

type wireResponse struct {
	X          string       `json:"x"`
	Y          string       `json:"y"`
	N          int          `json:"n"`
	Windows    []wireWindow `json:"windows"`
	Stats      core.Stats   `json:"stats"`
	Partial    bool         `json:"partial"`
	StopReason string       `json:"stop_reason"`
	Degraded   bool         `json:"degraded,omitempty"`
}

// searchReq is the /v1/search body the benchmark sends; every search option
// is spelled out so the direct recomputation uses the same values.
type searchReq struct {
	X              string  `json:"x"`
	Y              string  `json:"y"`
	SMin           int     `json:"smin"`
	SMax           int     `json:"smax"`
	TDMax          int     `json:"tdmax"`
	Sigma          float64 `json:"sigma"`
	Variant        string  `json:"variant"`
	Seed           int64   `json:"seed"`
	MaxEvaluations int     `json:"max_evaluations,omitempty"`
}

// options is the core.Options the daemon derives from the request.
func (q searchReq) options() core.Options {
	return core.Options{
		SMin: q.SMin, SMax: q.SMax, TDMax: q.TDMax, Sigma: q.Sigma, Seed: q.Seed,
		MaxEvaluations: q.MaxEvaluations, RestartWorkers: 1, Variant: core.VariantLMN,
	}
}

// expectedBody encodes a direct search over the first n points the way the
// daemon encodes its response.
func expectedBody(q searchReq, xs, ys []float64, n int) ([]byte, error) {
	pair, err := series.NewPair(series.New(q.X, xs[:n]), series.New(q.Y, ys[:n]))
	if err != nil {
		return nil, err
	}
	res, err := core.SearchContext(context.Background(), pair, q.options())
	if err != nil {
		return nil, err
	}
	ws := make([]wireWindow, 0, len(res.Windows))
	for _, w := range res.Windows {
		ws = append(ws, wireWindow{Start: w.Start, End: w.End, Delay: w.Delay, Score: w.MI})
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(wireResponse{
		X: q.X, Y: q.Y, N: n, Windows: ws, Stats: res.Stats.Deterministic(),
		Partial: res.Partial, StopReason: string(res.Stats.StopReason),
	})
	return buf.Bytes(), err
}

// searchReply is one answered search as the client saw it.
type searchReply struct {
	body   []byte
	source string // X-Tycosd-Source
	trace  string // X-Tycosd-Trace
	n      int
}

// doSearch sends one search and validates the reply: a 2xx status, a body
// that decodes strictly into the daemon's response shape, the requested
// pair, a positive n and a known source. Anything else is an error, which
// the caller counts as a failed operation.
func doSearch(ctx context.Context, c *http.Client, url string, q searchReq) (searchReply, error) {
	var rep searchReply
	body, _ := json.Marshal(q)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	rep.body, err = io.ReadAll(resp.Body)
	if err != nil {
		return rep, fmt.Errorf("search %s/%s: read body: %w", q.X, q.Y, err)
	}
	if resp.StatusCode/100 != 2 {
		return rep, fmt.Errorf("search %s/%s: status %d", q.X, q.Y, resp.StatusCode)
	}
	rep.source = resp.Header.Get("X-Tycosd-Source")
	rep.trace = resp.Header.Get("X-Tycosd-Trace")
	var w wireResponse
	dec := json.NewDecoder(bytes.NewReader(rep.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return rep, fmt.Errorf("search %s/%s: malformed response: %w", q.X, q.Y, err)
	}
	if w.X != q.X || w.Y != q.Y || w.N <= 0 || w.Degraded {
		return rep, fmt.Errorf("search %s/%s: response names %s/%s n=%d degraded=%v", q.X, q.Y, w.X, w.Y, w.N, w.Degraded)
	}
	if rep.source != "computed" && rep.source != "journal" {
		return rep, fmt.Errorf("search %s/%s: unknown source %q", q.X, q.Y, rep.source)
	}
	rep.n = w.N
	return rep, nil
}

// post sends a JSON body and drains the reply, failing on a non-2xx status.
func post(ctx context.Context, c *http.Client, url string, v any) error {
	body, _ := json.Marshal(v)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return roundTrip(c, req)
}

// get fetches url, failing on a non-2xx status, and returns the body.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

func roundTrip(c *http.Client, req *http.Request) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	return nil
}

// liveData is one live pair's full generated series; the daemon holds a
// prefix of it that grows as ingests land.
type liveData struct {
	x, y []float64
	sent int // points of each series ingested so far (writer goroutine only)
}

// pairSeries draws one correlated pair: y follows x at a delay of 3 with
// noise over the whole length.
func pairSeries(rng *rand.Rand, n int) (x, y []float64) {
	x = arSeries(rng, n, 0.8)
	y = make([]float64, n)
	for t := range y {
		src := rng.NormFloat64()
		if t >= 3 {
			src = x[t-3]
		}
		y[t] = src + 0.5*rng.NormFloat64()
	}
	return x, y
}

// serveEnv is one running daemon behind an httptest server, with its inputs.
type serveEnv struct {
	sp      serveSpec
	dir     string
	srv     *daemon.Server
	ts      *httptest.Server
	live    []*liveData
	frozenQ [][]searchReq // per frozen pair, per parameter set
	// frozenBody holds the warm-up's computed body per frozen request.
	frozenBody map[string][]byte
}

func liveName(i int, axis string) string   { return fmt.Sprintf("live%02d_%s", i, axis) }
func frozenName(i int, axis string) string { return fmt.Sprintf("frozen%02d_%s", i, axis) }

func reqKey(q searchReq, n int) string {
	b, _ := json.Marshal(q)
	return fmt.Sprintf("%s|%d", b, n)
}

// serveInputs are the generated series: live pairs long enough for every
// append the run makes, and frozen pairs.
type serveInputs struct {
	live, frozen [][2][]float64
}

// newServeInputs draws the serve workload's series from seed.
func newServeInputs(seed int64, sp serveSpec) serveInputs {
	rng := rand.New(rand.NewSource(seed))
	var in serveInputs
	for i := 0; i < sp.LivePairs; i++ {
		x, y := pairSeries(rng, sp.Points+400*sp.Append)
		in.live = append(in.live, [2][]float64{x, y})
	}
	for i := 0; i < sp.FrozenPairs; i++ {
		x, y := pairSeries(rng, sp.Points)
		in.frozen = append(in.frozen, [2][]float64{x, y})
	}
	return in
}

// newServeEnv starts a daemon with a journal in a fresh directory under the
// checkout, ingests every pair and warms the frozen searches into the
// journal.
func newServeEnv(r *run, sp serveSpec, in serveInputs, cfg daemon.Config) (*serveEnv, error) {
	dir, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return nil, err
	}
	cfg.JournalPath = filepath.Join(dir, "journal.jsonl")
	srv, err := daemon.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{sp: sp, dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler()), frozenBody: map[string][]byte{}}
	c := &http.Client{Timeout: 30 * time.Second}
	ctx := context.Background()
	ingest := func(name string, vals []float64) error {
		err := post(ctx, c, e.ts.URL+"/v1/series", map[string]any{"name": name, "values": vals})
		r.op(err)
		return err
	}
	for i, xy := range in.live {
		x, y := xy[0], xy[1]
		e.live = append(e.live, &liveData{x: x, y: y, sent: sp.Points})
		if err := ingest(liveName(i, "x"), x[:sp.Points]); err != nil {
			return e, err
		}
		if err := ingest(liveName(i, "y"), y[:sp.Points]); err != nil {
			return e, err
		}
	}
	for i, xy := range in.frozen {
		x, y := xy[0], xy[1]
		if err := ingest(frozenName(i, "x"), x); err != nil {
			return e, err
		}
		if err := ingest(frozenName(i, "y"), y); err != nil {
			return e, err
		}
		var qs []searchReq
		for p := 0; p < sp.FrozenParamSets; p++ {
			qs = append(qs, e.searchReq(frozenName(i, "x"), frozenName(i, "y"), int64(p+1), 0))
		}
		e.frozenQ = append(e.frozenQ, qs)
	}
	// Warm the frozen searches: each computes once, lands in the journal,
	// and its body is what every later journal hit must replay.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, runtime.NumCPU())
	for i := range e.frozenQ {
		for _, q := range e.frozenQ[i] {
			wg.Add(1)
			sem <- struct{}{}
			go func(q searchReq) {
				defer wg.Done()
				defer func() { <-sem }()
				defer func() {
					if p := recover(); p != nil {
						mu.Lock()
						r.op(fmt.Errorf("warm-up search %s/%s panicked: %v", q.X, q.Y, p))
						mu.Unlock()
					}
				}()
				rep, err := doSearch(ctx, c, e.ts.URL, q)
				if err == nil && rep.source != "computed" {
					err = fmt.Errorf("warm-up search %s/%s served from %s", q.X, q.Y, rep.source)
				}
				mu.Lock()
				defer mu.Unlock()
				r.op(err)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				e.frozenBody[reqKey(q, rep.n)] = rep.body
			}(q)
		}
	}
	wg.Wait()
	c.CloseIdleConnections()
	return e, firstErr
}

// searchReq builds a request with the workload's search parameters.
func (e *serveEnv) searchReq(x, y string, seed int64, maxEvals int) searchReq {
	s := e.sp.Search
	return searchReq{X: x, Y: y, SMin: s.SMin, SMax: s.SMax, TDMax: s.TDMax, Sigma: s.Sigma,
		Variant: "lmn", Seed: seed, MaxEvaluations: maxEvals}
}

// close stops the HTTP server and drains the daemon, then removes the
// journal directory unless keep is set (the caller reopens the journal
// first and removes it afterwards).
func (e *serveEnv) close(keep bool) error {
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	if !keep {
		os.RemoveAll(e.dir)
	}
	return err
}

// event kinds of the open-loop schedule.
const (
	evLive = iota
	evFrozen
	evIngest
	evMetrics
	evStatusz
)

// event is one scheduled request.
type event struct {
	due   time.Duration // since the step's start
	kind  int
	pair  int
	param int // frozen parameter set, or live search seed
	evals int // live search budget
}

// schedule builds one rate step's events: requests evenly spaced at rate
// per second with kinds drawn from the mix, plus the periodic scrapes.
func schedule(rng *rand.Rand, sp serveSpec, rate float64, d time.Duration) []event {
	var evs []event
	n := int(rate * d.Seconds())
	for i := 0; i < n; i++ {
		ev := event{due: time.Duration(float64(i) / rate * float64(time.Second))}
		u := rng.Float64() * (sp.Mix.Live + sp.Mix.Frozen + sp.Mix.Ingest)
		switch {
		case u < sp.Mix.Live:
			ev.kind, ev.pair = evLive, rng.Intn(sp.LivePairs)
			ev.param = 1 + rng.Intn(3)
			// A budget drawn from the whole range, not a few levels: with
			// discrete levels the latency median can sit on the gap
			// between two clusters and jump between them from run to run.
			lo, hi := sp.MaxEvaluations[0], sp.MaxEvaluations[1]
			ev.evals = lo + rng.Intn(hi-lo+1)
		case u < sp.Mix.Live+sp.Mix.Frozen:
			ev.kind, ev.pair, ev.param = evFrozen, rng.Intn(sp.FrozenPairs), rng.Intn(sp.FrozenParamSets)
		default:
			ev.kind, ev.pair = evIngest, rng.Intn(sp.LivePairs)
		}
		evs = append(evs, ev)
	}
	// Scrapes go in due order among the requests.
	add := func(kind int, every float64) {
		for t := 0.0; t < d.Seconds(); t += every {
			evs = append(evs, event{due: time.Duration(t * float64(time.Second)), kind: kind})
		}
	}
	add(evMetrics, sp.MetricsEverySec)
	add(evStatusz, sp.StatuszEverySec)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// reqSample is one completed request's timing, relative to its due time.
type reqSample struct {
	kind      int
	due       time.Duration
	latency   time.Duration // due → reply read
	wait      time.Duration // due → connection obtained
	lag       time.Duration // due → dispatched by the generator
	source    string
	failed    bool
	liveCheck *liveCheck
}

// liveCheck is a computed live response kept for the direct-search check.
type liveCheck struct {
	q    searchReq
	pair int
	n    int
	body []byte
}

// stepResult is one rate step's outcome.
type stepResult struct {
	rate     float64
	duration time.Duration // scheduled length
	elapsed  time.Duration // until the last request finished
	samples  []reqSample
	scrapes  map[int][]time.Duration // scrape kind → latencies
}

// searchLatencies returns the step's search latencies in milliseconds.
func (s stepResult) searchLatencies() []float64 {
	var out []float64
	for _, x := range s.samples {
		if x.kind != evLive && x.kind != evFrozen {
			continue
		}
		ms := millis(x.latency)
		if x.failed {
			ms = millis(s.duration) // a failed request misses any limit
		}
		out = append(out, ms)
	}
	return out
}

// kindLatencies returns the latencies of one request kind in milliseconds.
func (s stepResult) kindLatencies(kind int) []float64 {
	var out []float64
	for _, x := range s.samples {
		if x.kind == kind {
			out = append(out, millis(x.latency))
		}
	}
	return out
}

// driver runs the open-loop schedule against one serveEnv.
type driver struct {
	r       *run
	e       *serveEnv
	search  *http.Client      // at most nproc-1 connections, searches only
	writer  *http.Client      // one connection: ingests and scrapes, in order
	mu      sync.Mutex        // guards r's counters and the check state
	journal map[string]uint64 // request key → hash of a computed body
	keep    func(i int) bool  // selects computed live responses to re-check
	nLive   int
}

func newDriver(r *run, e *serveEnv) *driver {
	conns := runtime.NumCPU() - 1
	if conns < 1 {
		conns = 1
	}
	rng := rand.New(rand.NewSource(subSeed(r.seed, 99)))
	every := 1 + rng.Intn(5)
	return &driver{
		r: r, e: e,
		search: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		writer: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		journal: map[string]uint64{},
		keep:    func(i int) bool { return i%(8+every) == every },
	}
}

func (d *driver) close() {
	d.search.CloseIdleConnections()
	d.writer.CloseIdleConnections()
}

// fail counts one failed operation from a request goroutine.
func (d *driver) fail(err error) {
	d.mu.Lock()
	d.r.op(err)
	d.mu.Unlock()
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runStep plays one rate step and waits until every request has finished.
func (d *driver) runStep(rng *rand.Rand, rate float64, dur time.Duration) stepResult {
	evs := schedule(rng, d.e.sp, rate, dur)
	res := stepResult{rate: rate, duration: dur, scrapes: map[int][]time.Duration{}}
	samples := make([]reqSample, len(evs))
	writes := make(chan int, len(evs)) // every event index fits: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				d.fail(fmt.Errorf("serve writer panicked: %v", p))
			}
		}()
		for i := range writes {
			d.write(start, evs[i], &samples[i])
		}
	}()
	for i, ev := range evs {
		if wait := time.Until(start.Add(ev.due)); wait > 0 {
			time.Sleep(wait)
		}
		samples[i].lag = time.Since(start) - ev.due
		if ev.kind == evLive || ev.kind == evFrozen {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						samples[i].failed = true
						d.fail(fmt.Errorf("search request panicked: %v", p))
					}
				}()
				d.searchOne(start, evs[i], &samples[i])
			}(i)
			continue
		}
		writes <- i
	}
	close(writes)
	wg.Wait()
	res.elapsed = time.Since(start)
	for i, s := range samples {
		if evs[i].kind == evMetrics || evs[i].kind == evStatusz {
			res.scrapes[evs[i].kind] = append(res.scrapes[evs[i].kind], s.latency)
			continue
		}
		res.samples = append(res.samples, s)
	}
	return res
}

// clientTrace records when the request got its connection.
func clientTrace(ctx context.Context, got *time.Time) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { *got = time.Now() },
	})
}

// searchOne sends one scheduled search and checks its reply.
func (d *driver) searchOne(start time.Time, ev event, s *reqSample) {
	e := d.e
	var q searchReq
	var pair int
	if ev.kind == evLive {
		pair = ev.pair
		q = e.searchReq(liveName(pair, "x"), liveName(pair, "y"), int64(ev.param), ev.evals)
	} else {
		q = e.frozenQ[ev.pair][ev.param]
	}
	due := start.Add(ev.due)
	op := d.r.spans.newOp()
	var got time.Time
	ctx := clientTrace(context.Background(), &got)
	rep, err := doSearch(ctx, d.search, e.ts.URL, q)
	end := time.Now()
	s.kind, s.due, s.latency = ev.kind, ev.due, end.Sub(due)
	if !got.IsZero() {
		s.wait = got.Sub(due)
	}
	s.source = rep.source
	attrs := map[string]string{"route": "/v1/search", "pair": q.X + "/" + q.Y, "source": rep.source}
	if rep.trace != "" {
		attrs["daemon_trace"] = rep.trace
	}
	d.r.spans.add("http.client", op, 0, due, end, attrs)

	d.mu.Lock()
	defer d.mu.Unlock()
	key := reqKey(q, rep.n)
	if err == nil && rep.source == "journal" {
		if want, ok := e.frozenBody[key]; ok {
			err = verify(bytes.Equal(want, rep.body), "serve: journal replay of %s/%s n=%d differs from its computed response", q.X, q.Y, rep.n)
		} else if h, seen := d.journal[key]; seen {
			err = verify(h == bodyHash(rep.body), "serve: journal replay of %s/%s n=%d differs from its computed response", q.X, q.Y, rep.n)
		}
	}
	d.r.op(err)
	if err != nil {
		s.failed = true
		return
	}
	switch {
	case rep.source == "journal":
	case ev.kind == evLive:
		d.journal[key] = bodyHash(rep.body)
		if d.keep(d.nLive) {
			s.liveCheck = &liveCheck{q: q, pair: pair, n: rep.n, body: rep.body}
		}
		d.nLive++
	}
}

// write performs one scheduled ingest (x then y of a live pair) or scrape
// on the writer connection.
func (d *driver) write(start time.Time, ev event, s *reqSample) {
	e := d.e
	due := start.Add(ev.due)
	// The writer may be behind; a request is never sent before its due time.
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	op := d.r.spans.newOp()
	var got time.Time
	ctx := clientTrace(context.Background(), &got)
	var err error
	route := ""
	switch ev.kind {
	case evIngest:
		route = "/v1/series"
		ld := e.live[ev.pair]
		lo, hi := ld.sent, ld.sent+e.sp.Append
		if hi > len(ld.x) {
			err = fmt.Errorf("live pair %d exhausted its %d generated points", ev.pair, len(ld.x))
			break
		}
		err = post(ctx, d.writer, e.ts.URL+"/v1/series", map[string]any{"name": liveName(ev.pair, "x"), "values": ld.x[lo:hi]})
		if err == nil {
			err = post(ctx, d.writer, e.ts.URL+"/v1/series", map[string]any{"name": liveName(ev.pair, "y"), "values": ld.y[lo:hi]})
		}
		if err == nil {
			ld.sent = hi
		}
	case evMetrics:
		route = "/metrics"
		_, err = get(ctx, d.writer, e.ts.URL+"/metrics")
	case evStatusz:
		route = "/statusz"
		_, err = get(ctx, d.writer, e.ts.URL+"/statusz")
	}
	end := time.Now()
	s.kind, s.due, s.latency = ev.kind, ev.due, end.Sub(due)
	if !got.IsZero() {
		s.wait = got.Sub(due)
	}
	d.r.spans.add("http.client", op, 0, due, end, map[string]string{"route": route})
	d.mu.Lock()
	d.r.op(err)
	d.mu.Unlock()
	s.failed = err != nil
}

// checkLive recomputes the kept live responses directly and compares bytes.
func (d *driver) checkLive(steps []stepResult) {
	for _, st := range steps {
		for _, s := range st.samples {
			lc := s.liveCheck
			if lc == nil {
				continue
			}
			ld := d.e.live[lc.pair]
			want, err := expectedBody(lc.q, ld.x, ld.y, lc.n)
			if err == nil {
				err = verify(bytes.Equal(want, lc.body), "serve: daemon response for %s/%s n=%d differs from a direct search", lc.q.X, lc.q.Y, lc.n)
			}
			d.r.op(err)
		}
	}
}

// stepDurations splits the timed phase over the rate steps by weight.
func stepDurations(sp serveSpec, total float64) []time.Duration {
	var sum float64
	for _, w := range sp.StepWeights {
		sum += w
	}
	out := make([]time.Duration, len(sp.StepWeights))
	for i, w := range sp.StepWeights {
		out[i] = time.Duration(total * w / sum * float64(time.Second))
	}
	return out
}

// stepLatency is the figure a step is judged by, in milliseconds: the larger
// of its search p90 and its drain time, the time its last request finished
// after the step's schedule ended. A backlog that grows through the step
// shows as a long drain even when most requests were fast.
func stepLatency(st stepResult) float64 {
	all := st.searchLatencies()
	if len(all) == 0 {
		return math.Inf(1)
	}
	return math.Max(percentile(all, 0.9), millis(st.elapsed-st.duration))
}

// achievedRate is the step's completed requests per second, over the time
// from the step's start until its last request finished.
func achievedRate(st stepResult) float64 {
	ok := 0
	for _, s := range st.samples {
		if !s.failed {
			ok++
		}
	}
	return float64(ok) / st.elapsed.Seconds()
}

func runServe(r *run) error {
	s, err := loadSpec()
	if err != nil {
		return err
	}
	sp := s.Serve
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if r.traced {
		return tracedServe(r, sp)
	}

	// Set-up, five times: daemon.New, the initial ingest and the journal
	// warm-up. The last environment serves the timed phase.
	in := newServeInputs(r.seed, sp)
	var setups []float64
	var e *serveEnv
	for rep := 0; rep < 5; rep++ {
		if e != nil {
			if err := e.close(false); err != nil {
				return err
			}
		}
		t0 := time.Now()
		e, err = newServeEnv(r, sp, in, daemon.Config{})
		setups = append(setups, seconds(time.Since(t0)))
		if err != nil {
			if e != nil {
				e.close(false)
			}
			return err
		}
	}
	r.set("setup_s", median(setups), "s")

	d := newDriver(r, e)
	rng := rand.New(rand.NewSource(subSeed(r.seed, 7)))
	heap := startHeapSampler(50 * time.Millisecond)
	var steps []stepResult
	for i, dur := range stepDurations(sp, r.seconds) {
		steps = append(steps, d.runStep(rng, sp.RateSteps[i], dur))
	}
	r.set("peak_heap_mb", heap.stop(), "MB")
	d.close()
	cerr := e.close(false)
	r.op(cerr)
	d.checkLive(steps)

	nom := steps[sp.NominalStep]
	lat := nom.searchLatencies()
	fmt.Fprintf(os.Stderr, "perfbench: serve nominal search latency (ms): %s\n", tailSummary(lat))
	r.set("op_ms", percentile(lat, 0.5), "ms")
	r.detail("search_p90_ms", percentile(lat, 0.9), "ms")
	r.detail("ingest_p90_ms", percentile(nom.kindLatencies(evIngest), 0.9), "ms")
	for _, st := range steps {
		fmt.Fprintf(os.Stderr, "perfbench: step %.0f rps: achieved %.1f rps, search p90 %.1f ms, drain %.1f ms\n",
			st.rate, achievedRate(st), percentile(st.searchLatencies(), 0.9), millis(st.elapsed-st.duration))
	}
	r.set("throughput_ops", maxRate(steps, sp.SearchP90LimitMS), "1/s")
	return nil
}

// maxRate estimates the highest rate whose step latency (stepLatency) meets
// the limit. Steps are taken in rising rate up to the first that fails; the
// estimate interpolates linearly in step latency between the achieved rates
// of the last passing step and that first failing one, so it moves smoothly
// with capacity instead of jumping between steps. When every step passes it
// is the top step's achieved rate; when the lowest fails, that step's rate
// scaled down by how far it overshot the limit.
func maxRate(steps []stepResult, limitMS float64) float64 {
	fail := len(steps)
	for i, st := range steps {
		if stepLatency(st) > limitMS {
			fail = i
			break
		}
	}
	switch fail {
	case len(steps):
		return achievedRate(steps[fail-1])
	case 0:
		return achievedRate(steps[0]) * limitMS / stepLatency(steps[0])
	}
	lo, hi := steps[fail-1], steps[fail]
	rlo, rhi := achievedRate(lo), achievedRate(hi)
	llo, lhi := stepLatency(lo), stepLatency(hi)
	return rlo + (rhi-rlo)*(limitMS-llo)/(lhi-llo)
}

// spanSink is the traced daemon's Config.Observer: it keeps each request
// trace's span durations and the search phases, and mirrors them into the
// benchmark's span recorder.
type spanSink struct {
	rec       *recorder
	mu        sync.Mutex
	traces    map[uint64]*traceTimes
	phaseSum  time.Duration
	phaseRuns int
}

// traceTimes are the daemon-side durations of one request trace.
type traceTimes struct {
	http, queue, phases time.Duration
	done                bool
}

func (s *spanSink) trace(id uint64) *traceTimes {
	t := s.traces[id]
	if t == nil {
		t = &traceTimes{}
		s.traces[id] = t
	}
	return t
}

func (s *spanSink) Event(e obs.Event) {
	tr, ok := e.(obs.Traced)
	if !ok {
		return
	}
	sf, ok := obs.Base(tr.Event).(obs.SpanFinished)
	if !ok {
		return
	}
	end := time.Now()
	d := time.Duration(sf.DurationNS)
	s.mu.Lock()
	t := s.trace(tr.Span.TraceID)
	switch sf.Name {
	case "http.request":
		t.http, t.done = d, true
	case "queue.wait":
		t.queue = d
	}
	s.mu.Unlock()
	s.rec.add("daemon."+sf.Name, 0, 0, end.Add(-d), end, map[string]string{
		"daemon_trace":  fmt.Sprintf("%016x", tr.Span.TraceID),
		"daemon_span":   strconv.FormatUint(tr.Span.SpanID, 16),
		"daemon_parent": strconv.FormatUint(tr.Span.Parent, 16),
	})
}

func (s *spanSink) Count(string, int64) {}

func (s *spanSink) PhaseEnd(p obs.Phase, d time.Duration) {
	s.mu.Lock()
	s.phaseSum += d
	if p == obs.PhaseClimb {
		s.phaseRuns++
	}
	s.mu.Unlock()
}

func (s *spanSink) SpanPhaseEnd(sc obs.SpanContext, p obs.Phase, d time.Duration) {
	s.PhaseEnd(p, d)
	s.mu.Lock()
	s.trace(sc.TraceID).phases += d
	s.mu.Unlock()
}

// scrapeHist reads the queue-wait histogram from /metrics.
func scrapeHist(c *http.Client, url string) (promHistogram, error) {
	b, err := get(context.Background(), c, url+"/metrics")
	if err != nil {
		return promHistogram{}, err
	}
	return parsePromHistogram(string(b), "tycos_queue_wait_seconds")
}

// tracedServe is the per-layer run: the nominal step against an untraced
// daemon (the overhead baseline), then every step against a daemon with a
// span-collecting Observer and full trace sampling, under a CPU profile.
func tracedServe(r *run, sp serveSpec) error {
	durs := stepDurations(sp, r.seconds)
	spans := r.spans
	r.spans = nil
	in := newServeInputs(r.seed, sp)
	plainEnv, err := newServeEnv(r, sp, in, daemon.Config{})
	if err != nil {
		if plainEnv != nil {
			plainEnv.close(false)
		}
		return err
	}
	pd := newDriver(r, plainEnv)
	plain := pd.runStep(rand.New(rand.NewSource(subSeed(r.seed, 7))), sp.RateSteps[sp.NominalStep], durs[sp.NominalStep])
	pd.close()
	r.op(plainEnv.close(false))
	r.spans = spans

	sink := &spanSink{rec: r.spans, traces: map[uint64]*traceTimes{}}
	e, err := newServeEnv(r, sp, in, daemon.Config{Observer: sink, TraceSample: 1})
	if err != nil {
		if e != nil {
			e.close(false)
		}
		return err
	}
	heap0 := liveHeapMB()
	d := newDriver(r, e)
	fail := func(err error) error {
		d.close()
		e.close(false)
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(r.seed, 7)))
	rt := startRuntimeWindow()
	prof, err := startCPUProfile()
	if err != nil {
		return fail(err)
	}
	var steps []stepResult
	var qwait float64
	for i, dur := range durs {
		h0, err := scrapeHist(d.writer, e.ts.URL)
		if err == nil {
			steps = append(steps, d.runStep(rng, sp.RateSteps[i], dur))
			var h1 promHistogram
			if h1, err = scrapeHist(d.writer, e.ts.URL); err == nil && i == sp.NominalStep {
				var q float64
				q, err = histQuantile(h0, h1, 0.5)
				qwait = 1e3 * q
			}
		}
		if err != nil {
			prof.stop(r)
			return fail(err)
		}
	}
	if err := prof.stop(r); err != nil {
		return fail(err)
	}
	ops := 0
	for _, st := range steps {
		ops += len(st.samples)
	}
	rt.report(r, ops)
	r.detail("obs.heap_growth_mb", liveHeapMB()-heap0, "MB")
	d.close()
	d.checkLive(steps)

	nom := steps[sp.NominalStep]
	pick := func(f func(reqSample) time.Duration) []float64 {
		var out []float64
		for _, s := range nom.samples {
			out = append(out, millis(f(s)))
		}
		return out
	}
	r.detail("daemon.client_wait_ms", median(pick(func(s reqSample) time.Duration { return s.wait })), "ms")
	r.detail("daemon.generator_lag_ms", percentile(pick(func(s reqSample) time.Duration { return s.lag }), 0.9), "ms")
	r.detail("daemon.queue_wait_ms", qwait, "ms")
	hits, searches := 0, 0
	for _, st := range steps {
		for _, s := range st.samples {
			if s.kind == evLive || s.kind == evFrozen {
				searches++
				if s.source == "journal" {
					hits++
				}
			}
		}
	}
	r.detail("daemon.journal_hit_ratio", float64(hits)/float64(searches), "ratio")
	sink.mu.Lock()
	var self []float64
	for _, t := range sink.traces {
		if t.done {
			self = append(self, millis(t.http-t.queue-t.phases))
		}
	}
	if sink.phaseRuns > 0 {
		r.detail("daemon.search_service_ms", millis(sink.phaseSum)/float64(sink.phaseRuns), "ms")
	}
	sink.mu.Unlock()
	r.detail("daemon.http_self_ms", median(self), "ms")
	first, last := steps[0].scrapes[evMetrics], steps[len(steps)-1].scrapes[evMetrics]
	r.detail("serve.metrics_scrape_ms.first", millis(first[0]), "ms")
	r.detail("serve.metrics_scrape_ms.last", millis(last[len(last)-1]), "ms")
	stz := steps[len(steps)-1].scrapes[evStatusz]
	r.detail("serve.statusz_ms", millis(stz[len(stz)-1]), "ms")
	plainLat, tracedLat := plain.searchLatencies(), nom.searchLatencies()
	r.set("obs.trace_overhead", median(tracedLat)/median(plainLat), "ratio")

	// The journal this run wrote: its size, and the time to reopen it.
	jpath := filepath.Join(e.dir, "journal.jsonl")
	cerr := e.close(true)
	r.op(cerr)
	defer os.RemoveAll(e.dir)
	fi, err := os.Stat(jpath)
	if err != nil {
		return err
	}
	r.detail("checkpoint.journal_bytes", float64(fi.Size()), "bytes")
	var reopen []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		j, err := checkpoint.Open(jpath)
		if err != nil {
			return err
		}
		reopen = append(reopen, millis(time.Since(t0)))
		if err := j.Close(); err != nil {
			return err
		}
	}
	r.detail("serve.journal_reopen_ms", median(reopen), "ms")

	// Layer probes on the first live pair, cut to the points set-up ingests
	// plus the appends the service probe makes, searched with the workload's
	// search options and ladder windows at its sizes (s_min to s_max).
	x, y := in.live[0][0], in.live[0][1]
	n := sp.Points + serviceProbeCalls*serviceProbeAppend
	pair, err := series.NewPair(series.New("x", x[:n]), series.New("y", y[:n]))
	if err != nil {
		return err
	}
	s := sp.Search
	opts := core.Options{SMin: s.SMin, SMax: s.SMax, TDMax: s.TDMax, Sigma: s.Sigma, Seed: 1}
	return layerProbes(r, pair, opts, []int{s.SMin, (s.SMin + s.SMax) / 2, s.SMax})
}
