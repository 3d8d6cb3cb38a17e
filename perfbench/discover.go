package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"sync"
	"time"

	"tycos/internal/core"
	"tycos/internal/discovery"
	"tycos/internal/mi"
	"tycos/internal/series"
	"tycos/internal/window"
)

// Fleet shape of the discover workload: one anchor against fleetSize
// candidates of fleetLen points (the Datadog-plan size of SNIPPETS.md §1).
const (
	fleetSize = 500
	fleetLen  = 1000
	echoes    = 40 // noisy delayed copies of the anchor: survive the screen, cost a confirm
)

// planted is one follower hidden in the fleet.
type planted struct {
	index, delay int
	linear       bool
}

// fleet is the discover workload's input.
type fleet struct {
	anchor  series.Series
	cands   []series.Series
	planted []planted
}

// arSeries draws a unit-variance AR(1) series with coefficient phi.
func arSeries(rng *rand.Rand, n int, phi float64) []float64 {
	v := make([]float64, n)
	a := rng.NormFloat64()
	s := math.Sqrt(1 - phi*phi)
	for i := range v {
		a = phi*a + s*rng.NormFloat64()
		v[i] = a
	}
	return v
}

// follower returns a copy of anchor delayed by d samples through f, plus
// Gaussian noise of the given scale.
func follower(rng *rand.Rand, anchor []float64, d int, noise float64, f func(float64) float64) []float64 {
	v := make([]float64, len(anchor))
	for t := range v {
		src := rng.NormFloat64()
		if t >= d {
			src = anchor[t-d]
		}
		v[t] = f(src) + noise*rng.NormFloat64()
	}
	return v
}

// newFleet generates the fleet from seed: eight planted followers (six
// linear at several delays and noise levels, two quadratic ones whose
// Pearson correlation with the anchor is near zero, so the screen may prune
// them), noisy echoes of the anchor that pass the screen and cost a confirm
// search each, and AR(1) decoys of mixed persistence that the screen prunes.
// Linear delays reach TDMax, the edge of the delay range.
func newFleet(seed int64) fleet {
	rng := rand.New(rand.NewSource(seed))
	anchor := arSeries(rng, fleetLen, 0.6)
	perm := rng.Perm(fleetSize)
	roles := map[int]int{} // fleet index → role (0..7 planted, 8 echo)
	for i := 0; i < 8; i++ {
		roles[perm[i]] = i
	}
	for i := 8; i < 8+echoes; i++ {
		roles[perm[i]] = 8
	}
	linDelays := []int{1, 2, 3, 5, 7, 8}
	linNoise := []float64{0.03, 0.06, 0.1}
	phis := []float64{0, 0.3, 0.6, 0.9}
	f := fleet{anchor: series.New("anchor", anchor)}
	for i := 0; i < fleetSize; i++ {
		name := fmt.Sprintf("m%03d", i)
		var v []float64
		role, ok := roles[i]
		switch {
		case ok && role < 6:
			d := linDelays[role]
			v = follower(rng, anchor, d, linNoise[role%3], func(x float64) float64 { return x })
			f.planted = append(f.planted, planted{index: i, delay: d, linear: true})
		case ok && role < 8:
			d := 2 + 3*(role-6)
			v = follower(rng, anchor, d, 0.02, func(x float64) float64 { return x * x })
			f.planted = append(f.planted, planted{index: i, delay: d})
		case ok:
			v = follower(rng, anchor, 1+rng.Intn(8), 0.6, func(x float64) float64 { return x })
		default:
			v = arSeries(rng, fleetLen, phis[rng.Intn(len(phis))])
		}
		f.cands = append(f.cands, series.New(name, v))
	}
	return f
}

// discoverOptions is the workload's discovery configuration. It runs one
// candidate at a time: with one worker per core, a discovery's time on a
// shared two-core host moved by up to a fifth between runs of the same
// seed, with one it repeats within about a twentieth. Results are
// byte-identical for every worker count.
func discoverOptions(seed int64) discovery.Options {
	return discovery.Options{
		Search: core.Options{
			SMin: 8, SMax: 32, TDMax: 8, Sigma: 0.45,
			Variant: core.VariantLMN, Normalization: mi.NormMaxEntropy, Seed: seed,
		},
		TopK: 10, Screen: true, ScreenWindow: 32, ScreenThreshold: 0.9, ScreenStride: 1,
		Workers: 1,
	}
}

// rankedBytes is the canonical form of a ranked list: names, positions,
// scores, windows and deterministic stats.
func rankedBytes(res discovery.Result) []byte {
	type row struct {
		Name    string
		Index   int
		Score   float64
		Windows []byte
	}
	rows := make([]row, len(res.Ranked))
	for i, c := range res.Ranked {
		rows[i] = row{c.Name, c.Index, c.Score, canonical(c.Result)}
	}
	b, _ := json.Marshal(struct {
		Rows      []row
		Threshold float64
		Errors    int
	}{rows, res.Threshold, len(res.Errors)})
	return b
}

// discoverOp is one timed discovery with its phase split.
type discoverOp struct {
	res       discovery.Result
	err       error
	total     time.Duration
	screenEnd time.Duration // since start; 0 when untraced
	survivors map[int]bool
}

// discoverOnce runs one discovery. When traced it records the operation's
// span, its screen and confirm phases (split at the last screen progress
// callback) and which candidates survived the screen.
func discoverOnce(r *run, f fleet, opts discovery.Options) discoverOp {
	var out discoverOp
	op := r.spans.newOp()
	root := r.spans.start("discovery.Discover", op, 0, nil)
	start := time.Now()
	var mu sync.Mutex
	var lastScreen time.Time
	if r.traced {
		out.survivors = map[int]bool{}
		names := map[string]int{}
		for i, c := range f.cands {
			names[c.Name] = i
		}
		opts.OnProgress = func(p discovery.Progress) {
			if p.Phase != "screen" {
				return
			}
			now := time.Now()
			mu.Lock()
			lastScreen = now
			if !p.Pruned {
				out.survivors[names[p.Candidate]] = true
			}
			mu.Unlock()
		}
	}
	pprof.Do(context.Background(), pprof.Labels("workload", "discover"), func(ctx context.Context) {
		out.res, out.err = discovery.Discover(ctx, f.anchor, f.cands, opts)
	})
	end := time.Now()
	out.total = end.Sub(start)
	root.endAt(end)
	if r.traced && !lastScreen.IsZero() {
		out.screenEnd = lastScreen.Sub(start)
		r.spans.add("discovery.screen", op, root.id, start, lastScreen, nil)
		r.spans.add("discovery.confirm", op, root.id, lastScreen, end, nil)
	}
	return out
}

// checkDiscovery verifies one discovery against the reference ranking and
// the planted linear followers, returning the first failure. A linear
// follower missing from the ranking, or ranked without a window at its
// delay, fails the check unless the discovery's own confirm search of it
// (searchFinds) misses that delay too: TYCOS_LMN's noise pruning can prune
// every direction of a follower that TYCOS_L finds (the paper's Table 4
// accuracy loss), and a discovery cannot rank what its search does not
// return. Such followers are counted in misses, keyed by fleet index.
func checkDiscovery(f fleet, opts discovery.Options, d discoverOp, ref []byte, misses map[int]bool) error {
	if d.err != nil {
		return d.err
	}
	if err := firstErr(
		verify(!d.res.Partial && len(d.res.Errors) == 0, "discover: partial result or candidate errors (%d)", len(d.res.Errors)),
		verify(bytes.Equal(rankedBytes(d.res), ref), "discover: ranked list differs from the first discovery"),
	); err != nil {
		return err
	}
	ranked := map[int]core.Result{}
	for _, c := range d.res.Ranked {
		ranked[c.Index] = c.Result
	}
	for _, p := range f.planted {
		if !p.linear || misses[p.index] {
			continue
		}
		res, ok := ranked[p.index]
		if ok && hasDelay(res.Windows, p.delay) {
			continue
		}
		found, err := searchFinds(f, opts, p)
		if err != nil {
			return err
		}
		if err := verify(!found, "discover: planted follower m%03d (delay %d) not ranked with its delay, which its confirm search finds", p.index, p.delay); err != nil {
			return err
		}
		misses[p.index] = true
	}
	return nil
}

// hasDelay reports whether any window is at delay d.
func hasDelay(ws []window.Scored, d int) bool {
	for _, w := range ws {
		if w.Delay == d {
			return true
		}
	}
	return false
}

// searchFinds runs the search a discovery runs to confirm candidate p (the
// discovery's search options with the candidate's derived seed) directly and
// reports whether it returns a window at p's delay.
func searchFinds(f fleet, opts discovery.Options, p planted) (bool, error) {
	so := opts.Search
	so.Seed = discovery.CandidateSeed(so.Seed, p.index)
	pair, err := series.NewPair(f.anchor, f.cands[p.index])
	if err != nil {
		return false, err
	}
	res, err := core.SearchContext(context.Background(), pair, so)
	return err == nil && hasDelay(res.Windows, p.delay), err
}

// recall is the share of planted followers in the ranked list.
func recall(f fleet, res discovery.Result) float64 {
	in := map[int]bool{}
	for _, c := range res.Ranked {
		in[c.Index] = true
	}
	hits := 0
	for _, p := range f.planted {
		if in[p.index] {
			hits++
		}
	}
	return float64(hits) / float64(len(f.planted))
}

// fleetPool is the number of fleets, each with its own anchor, drawn from
// the seed. Discoveries cycle over them and discover_s is the mean over the
// fleets of each one's median time, so one anchor's draw cannot move the
// figure far.
const fleetPool = 6

// meanOfMedians returns the mean over fleets of the median of f over each
// fleet's operations.
func meanOfMedians(ops [][]discoverOp, f func(discoverOp) float64) float64 {
	var meds []float64
	for _, fo := range ops {
		var xs []float64
		for _, d := range fo {
			xs = append(xs, f(d))
		}
		meds = append(meds, median(xs))
	}
	return mean(meds)
}

func runDiscover(r *run) error {
	fleets := make([]fleet, fleetPool)
	for i := range fleets {
		fleets[i] = newFleet(subSeed(r.seed, i))
	}
	opts := discoverOptions(r.seed)

	// The first discovery of each fleet sets the ranking every later one
	// must reproduce, and its recall.
	refs := make([][]byte, len(fleets))
	recalls := make([]float64, len(fleets))
	misses := make([]map[int]bool, len(fleets))
	for i := range misses {
		misses[i] = map[int]bool{}
	}
	discover := func(rr *run, i int) discoverOp {
		d := discoverOnce(rr, fleets[i], opts)
		if d.err == nil && refs[i] == nil {
			refs[i] = rankedBytes(d.res)
			recalls[i] = recall(fleets[i], d.res)
		}
		r.op(checkDiscovery(fleets[i], opts, d, refs[i], misses[i]))
		return d
	}
	untraced := &run{workload: r.workload}

	// Set-up: one untimed discovery on each of the first three fleets;
	// setup_s is their median.
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		discover(untraced, i)
		setups = append(setups, seconds(time.Since(t0)))
	}

	// passes runs whole passes over the fleets for about secs (at least one
	// pass; see anotherPass); rr's recorder decides whether they are traced.
	passes := func(rr *run, secs float64) [][]discoverOp {
		ops := make([][]discoverOp, len(fleets))
		start := time.Now()
		for pass := 0; pass == 0 || anotherPass(start, pass, secs); pass++ {
			for i := range fleets {
				ops[i] = append(ops[i], discover(rr, i))
			}
		}
		return ops
	}
	total := func(d discoverOp) float64 { return seconds(d.total) }

	if !r.traced {
		heap := startHeapSampler(50 * time.Millisecond)
		ops := passes(untraced, r.seconds)
		r.set("peak_heap_mb", heap.stop(), "MB")
		r.set("setup_s", median(setups), "s")
		r.set("op_ms", 1e3*meanOfMedians(ops, total), "ms")
		// Discoveries per second spent discovering, without the output
		// checks between them.
		var n, busy float64
		for _, fo := range ops {
			for _, d := range fo {
				n++
				busy += total(d)
			}
		}
		r.set("throughput_ops", n/busy, "1/s")
		r.detail("discover_recall", mean(recalls), "ratio")
		missed := 0
		for _, m := range misses {
			missed += len(m)
		}
		r.detail("discover.lmn_missed_linear_followers", float64(missed), "count")
		return nil
	}

	plain := passes(untraced, 0)
	rt := startRuntimeWindow()
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	traced := passes(r, 0)
	if err := prof.stop(r); err != nil {
		return err
	}
	rt.report(r, len(fleets))

	screen := func(d discoverOp) float64 { return seconds(d.screenEnd) }
	confirm := func(d discoverOp) float64 { return seconds(d.total - d.screenEnd) }
	r.detail("discovery.screen_s", meanOfMedians(traced, screen), "s")
	r.detail("discovery.confirm_s", meanOfMedians(traced, confirm), "s")
	r.detail("discovery.confirm_ms_per_survivor", meanOfMedians(traced, func(d discoverOp) float64 {
		return 1e3 * confirm(d) / float64(d.res.Stats.Searched)
	}), "ms")
	var pruned, cands, evaluated, survived, planted int
	for i, fo := range traced {
		d := fo[0]
		pruned += d.res.Stats.Pruned
		cands += d.res.Stats.Candidates
		evaluated += d.res.Stats.Evaluated
		for _, p := range fleets[i].planted {
			planted++
			if d.survivors[p.index] {
				survived++
			}
		}
	}
	r.detail("discovery.prune_ratio", float64(pruned)/float64(cands), "ratio")
	r.detail("discovery.evaluated", float64(evaluated), "count")
	r.detail("discovery.screen_recall", float64(survived)/float64(planted), "ratio")
	r.set("obs.trace_overhead", meanOfMedians(traced, total)/meanOfMedians(plain, total), "ratio")

	// Layer probes on the first anchor against its first planted follower,
	// aligned at its delay, with ladder windows at the confirm searches'
	// sizes (s_min to s_max).
	f := fleets[0]
	p := f.planted[0]
	pair, err := series.NewPair(
		series.New("anchor", f.anchor.Values[:fleetLen-p.delay]),
		series.New("follower", f.cands[p.index].Values[p.delay:]))
	if err != nil {
		return err
	}
	return layerProbes(r, pair, opts.Search, []int{8, 16, 32})
}
