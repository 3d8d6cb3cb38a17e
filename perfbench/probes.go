package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"tycos/internal/baseline"
	"tycos/internal/checkpoint"
	"tycos/internal/core"
	"tycos/internal/daemon"
	"tycos/internal/discovery"
	"tycos/internal/series"
	"tycos/internal/window"
)

// probeReps is how often the core, discovery and service probes repeat each
// call; they report the median.
const probeReps = 3

// layerProbes measures every layer's per-layer metrics on one pair cut from
// the workload's own inputs, searched with the workload's own options, so
// each workload reports the same metrics for its input shape: the k-NN and
// MI rungs at the given window sizes (ladder), the four TYCOS variants
// (coreProbe), the discovery screen and a small fleet (discoveryProbe), and
// a daemon with its journal and telemetry (serviceProbe).
func layerProbes(r *run, pair series.Pair, opts core.Options, sizes []int) error {
	x, y := pair.X.Values, pair.Y.Values
	for _, p := range []func() error{
		func() error { return ladder(r, x, y, sizes) },
		func() error { return coreProbe(r, pair, opts) },
		func() error { return discoveryProbe(r, x, y) },
		func() error { return serviceProbe(r, x, y, opts) },
	} {
		if err := p(); err != nil {
			return err
		}
	}
	return nil
}

// timed runs fn probeReps times under a pprof label and a span each and
// returns the median wall time in milliseconds; fn's first error stops it.
func timed(r *run, name string, attrs map[string]string, fn func(ctx context.Context) error) (float64, error) {
	var ms []float64
	for rep := 0; rep < probeReps; rep++ {
		op := r.spans.newOp()
		s := r.spans.start("probe."+name, op, 0, attrs)
		var err error
		t0 := time.Now()
		pprof.Do(context.Background(), pprof.Labels("workload", r.workload, "probe", name), func(ctx context.Context) {
			err = fn(ctx)
		})
		ms = append(ms, millis(time.Since(t0)))
		s.end()
		r.op(err)
		if err != nil {
			return 0, err
		}
	}
	return median(ms), nil
}

// coreProbe runs each TYCOS variant on the pair with one restart worker and
// reports its time, the work it did (windows scored, estimates and
// incremental moves from the Observer counters, rebuilds), the cost of one
// scored window, the speed-up ratios between the variants and, as a detail,
// LN's accuracy against L. Repeated runs of a variant must return identical bytes.
func coreProbe(r *run, pair series.Pair, base core.Options) error {
	ms := map[string]float64{}
	windows := map[string][]window.Scored{}
	for _, v := range variants {
		opts := base
		opts.Variant = v.v
		opts.RestartWorkers = 1
		opts.MaxEvaluations = 0
		sink := newCountSink()
		opts.Observer = sink
		var res core.Result
		var first []byte
		t, err := timed(r, "core.SearchContext", map[string]string{"variant": v.name}, func(ctx context.Context) error {
			var err error
			if res, err = core.SearchContext(ctx, pair, opts); err != nil {
				return err
			}
			b := canonical(res)
			if first == nil {
				first = b
			}
			return verify(bytes.Equal(b, first), "core probe %s: repeated search differs", v.name)
		})
		if err != nil {
			return err
		}
		ms[v.name] = t
		windows[v.name] = res.Windows
		st := res.Stats
		r.set("core.search_ms."+v.name, t, "ms")
		r.set("core.windows_evaluated."+v.name, float64(st.WindowsEvaluated), "count")
		r.set("core.window_us."+v.name, float64(st.Timing.Climb.Nanoseconds())/1e3/float64(st.WindowsEvaluated), "us")
		switch v.name {
		case "L", "LN":
			r.set("mi.ksg_estimates."+v.name, float64(sink.get("mi.ksg_estimates"))/probeReps, "count")
		case "LM", "LMN":
			r.set("mi.inc_ops."+v.name, float64(sink.get("mi.inc_inserts")+sink.get("mi.inc_removes"))/probeReps, "count")
			r.set("core.rebuild_ratio."+v.name, float64(st.MIBatch)/float64(st.WindowsEvaluated), "ratio")
		}
	}
	r.set("core.speedup.LM_vs_L", ms["L"]/ms["LM"], "ratio")
	r.set("core.speedup.LMN_vs_LN", ms["LN"]/ms["LMN"], "ratio")
	r.set("core.speedup.LN_vs_L", ms["L"]/ms["LN"], "ratio")
	// LN can prune every direction of a pair L finds (the paper's Table 4
	// accuracy loss), so its accuracy may read 0: a detail, not a metric.
	r.detail("core.accuracy.LN_vs_L", window.SymmetricMatchRate(
		window.MergeWithin(windows["LN"], 10), window.MergeWithin(windows["L"], 10)), "%")
	return nil
}

// Probe fleet: an anchor of fleetProbeLen points against fleetProbeSize
// windows of the other series at evenly spaced offsets, of which only the
// first is aligned with the anchor.
const (
	fleetProbeLen  = 512
	fleetProbeSize = 8
)

// discoveryProbe times the discovery screen's public function (one sliding
// Pearson pass at the discover workload's screen window) and one screened
// discovery over a small fleet cut from the pair, with the discover
// workload's options.
func discoveryProbe(r *run, x, y []float64) error {
	const screenWindow = 32
	m := min(len(x), 1000)
	var err error
	r.set("baseline.sliding_pcc_us", probe(r, "sliding_pcc", m, 1, func() {
		if _, _, e := baseline.SlidingPCCDetail(x[:m], y[:m], screenWindow, 0.9); e != nil && err == nil {
			err = e
		}
	})/1e3, "us")
	if err != nil {
		return err
	}

	step := (len(y) - fleetProbeLen) / fleetProbeSize
	if step < 1 {
		return fmt.Errorf("discovery probe: series of %d points too short for the probe fleet", len(y))
	}
	anchor := series.New("anchor", x[:fleetProbeLen])
	cands := make([]series.Series, fleetProbeSize)
	for i := range cands {
		cands[i] = series.New(fmt.Sprintf("c%d", i), y[i*step:i*step+fleetProbeLen])
	}
	opts := discoverOptions(1)
	var first []byte
	t, err := timed(r, "discovery.Discover", nil, func(ctx context.Context) error {
		res, err := discovery.Discover(ctx, anchor, cands, opts)
		if err != nil {
			return err
		}
		b := rankedBytes(res)
		if first == nil {
			first = b
		}
		return firstErr(
			verify(!res.Partial && len(res.Errors) == 0, "discovery probe: partial result or candidate errors (%d)", len(res.Errors)),
			verify(bytes.Equal(b, first), "discovery probe: repeated discovery differs"),
		)
	})
	r.set("discovery.fleet_ms", t, "ms")
	return err
}

// Service probe sizes: the most points of each series ingested, the points of
// one append, and the number of journal hits, appends and scrapes timed.
// Searches run to completion: a partial result is not journaled.
const (
	serviceProbeLen    = 1500
	serviceProbeAppend = 10
	serviceProbeCalls  = 20
)

// serviceProbe starts a daemon behind httptest with a journal under the
// checkout, ingests the pair and times, one request at a time: a computed
// search, a journal hit of it (whose body must replay the computed one), an
// append, a /metrics and a /statusz scrape. After the daemon has drained it
// times checkpoint.Open on the journal it wrote, and appends to a journal
// directly.
func serviceProbe(r *run, x, y []float64, opts core.Options) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "journal.jsonl")
	srv, err := daemon.New(daemon.Config{JournalPath: jpath})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	err = serviceCalls(r, ts.URL, x, y, opts)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := srv.Drain(ctx)
	if cerr := srv.Close(); derr == nil {
		derr = cerr
	}
	r.op(derr)
	if err = firstErr(err, derr); err != nil {
		return err
	}

	t, err := timed(r, "checkpoint.Open", nil, func(context.Context) error {
		j, err := checkpoint.Open(jpath)
		if err != nil {
			return err
		}
		return firstErr(verify(j.Len() > 0, "checkpoint probe: reopened journal is empty"), j.Close())
	})
	if err != nil {
		return err
	}
	r.set("checkpoint.reopen_ms", t, "ms")

	n := serviceProbeN(x)
	pair, err := series.NewPair(series.New("x", x[:n]), series.New("y", y[:n]))
	if err != nil {
		return err
	}
	rec := opts
	rec.Variant, rec.MaxEvaluations, rec.RestartWorkers = core.VariantLMN, 0, 1
	res, err := core.SearchContext(context.Background(), pair, rec)
	if err != nil {
		return err
	}
	j, err := checkpoint.Open(filepath.Join(dir, "direct.jsonl"))
	if err != nil {
		return err
	}
	next := 0
	r.set("checkpoint.record_us", probe(r, "checkpoint_record", len(res.Windows), 1, func() {
		if e := j.Record(fmt.Sprintf("x%d", next), "y", res); e != nil && err == nil {
			err = e
		}
		next++
	})/1e3, "us")
	return firstErr(err, j.Close())
}

// serviceProbeN is the number of points the service probe ingests from
// series of len(x) points: serviceProbeLen, or fewer where the appends the
// probe makes would not fit after them.
func serviceProbeN(x []float64) int {
	return min(serviceProbeLen, len(x)-serviceProbeCalls*serviceProbeAppend)
}

// serviceCalls is serviceProbe's part against the running daemon at url.
func serviceCalls(r *run, url string, x, y []float64, opts core.Options) error {
	n := serviceProbeN(x)
	if n < 2*opts.SMax {
		return fmt.Errorf("service probe: series of %d points too short", len(x))
	}
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	ctx := context.Background()
	for _, s := range []struct {
		name string
		v    []float64
	}{{"probe_x", x[:n]}, {"probe_y", y[:n]}, {"probe_z", y[:n]}} {
		err := post(ctx, c, url+"/v1/series", map[string]any{"name": s.name, "values": s.v})
		r.op(err)
		if err != nil {
			return err
		}
	}
	q := searchReq{X: "probe_x", Y: "probe_y", SMin: opts.SMin, SMax: opts.SMax, TDMax: opts.TDMax, Sigma: opts.Sigma,
		Variant: "lmn"}
	var computed []byte
	t, err := timed(r, "daemon.search", nil, func(ctx context.Context) error {
		q.Seed++ // a new seed is a new journal key, so every call computes
		rep, err := doSearch(ctx, c, url, q)
		if err == nil {
			err = verify(rep.source == "computed", "service probe: new search served from %s", rep.source)
		}
		computed = rep.body
		return err
	})
	if err != nil {
		return err
	}
	r.set("daemon.search_ms", t, "ms")

	// calls times serviceProbeCalls calls of fn, one at a time, and returns
	// the median.
	calls := func(name string, fn func(i int) error) (float64, error) {
		var ms []float64
		for i := 0; i < serviceProbeCalls; i++ {
			op := r.spans.newOp()
			s := r.spans.start("probe."+name, op, 0, nil)
			t0 := time.Now()
			err := fn(i)
			ms = append(ms, millis(time.Since(t0)))
			s.end()
			r.op(err)
			if err != nil {
				return 0, err
			}
		}
		return median(ms), nil
	}
	probes := []struct {
		metric string
		fn     func(i int) error
	}{
		{"daemon.journal_hit_ms", func(int) error {
			rep, err := doSearch(ctx, c, url, q)
			if err != nil {
				return err
			}
			return firstErr(
				verify(rep.source == "journal", "service probe: repeated search served from %s", rep.source),
				verify(bytes.Equal(rep.body, computed), "service probe: journal hit differs from the computed response"),
			)
		}},
		{"daemon.ingest_ms", func(i int) error {
			lo := n + i*serviceProbeAppend
			return post(ctx, c, url+"/v1/series", map[string]any{"name": "probe_z", "values": y[lo : lo+serviceProbeAppend]})
		}},
		{"obs.metrics_scrape_ms", func(int) error { _, err := get(ctx, c, url+"/metrics"); return err }},
		{"obs.statusz_ms", func(int) error { _, err := get(ctx, c, url+"/statusz"); return err }},
	}
	for _, p := range probes {
		t, err := calls(p.metric, p.fn)
		if err != nil {
			return err
		}
		r.set(p.metric, t, "ms")
	}
	return nil
}
