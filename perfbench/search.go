package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"tycos/internal/core"
	"tycos/internal/dataset"
	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/series"
	"tycos/internal/synth"
	"tycos/internal/window"
)

// searchPool is the number of input instances the search workload draws
// from its seed. Each timed round searches one instance with every variant;
// op_ms is the mean over the instances of each one's median round time, so
// one unlucky draw of the noise cannot move the figure far.
const searchPool = 8

// variants are the four TYCOS variants in the order each round runs them.
var variants = []struct {
	name string
	v    core.Variant
}{
	{"L", core.VariantL}, {"LN", core.VariantLN}, {"LM", core.VariantLM}, {"LMN", core.VariantLMN},
}

// searchPair is one input pair with its search options and ground truth.
type searchPair struct {
	name    string
	pair    series.Pair
	opts    core.Options
	planted []synth.Segment
}

// searchInstance is the two pairs one round searches.
type searchInstance struct{ a, b searchPair }

// subSeed derives the i-th independent seed from root (SplitMix64).
func subSeed(root int64, i int) int64 {
	z := uint64(root) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}

// searchInstances generates the pool. Pair (a) is the Fig. 9 "Synthetic 2"
// shape (n=4000, two planted delayed segments); pair (b) the Table 3 C7
// shape (seven simulated days of precipitation against collision counts,
// with jitter and the significance correction).
func searchInstances(seed int64) ([]searchInstance, error) {
	out := make([]searchInstance, searchPool)
	for i := range out {
		s := subSeed(seed, i)
		comp, err := synth.CorrelatedAR(4000, 2, 400, 10, s)
		if err != nil {
			return nil, err
		}
		city := dataset.SimulateCity(dataset.CityOptions{Days: 7, Seed: s})
		cp, err := series.NewPair(city.Precipitation, city.Collisions)
		if err != nil {
			return nil, err
		}
		out[i] = searchInstance{
			a: searchPair{name: "a", pair: comp.Pair, planted: comp.Segments, opts: core.Options{
				SMin: 10, SMax: 500, TDMax: 10, Sigma: 0.3,
				Normalization: mi.NormMaxEntropy, Seed: s,
			}},
			b: searchPair{name: "b", pair: cp, opts: core.Options{
				SMin: 12, SMax: 96, TDMax: 30, Sigma: 0.15, Delta: 1, MaxIdle: 8,
				Jitter: 0.01, SignificanceLevel: 3,
				Normalization: mi.NormMaxEntropy, Seed: s,
			}},
		}
	}
	return out, nil
}

// canonical is the byte form two results must share to count as identical:
// the windows and the deterministic stats (wall-clock timing stripped).
func canonical(res core.Result) []byte {
	b, _ := json.Marshal(struct {
		Windows []window.Scored
		Stats   core.Stats
		Partial bool
	}{res.Windows, res.Stats.Deterministic(), res.Partial})
	return b
}

// countSink is an obs.Sink that sums the counters a search emits.
type countSink struct {
	mu     sync.Mutex
	counts map[string]int64
}

func newCountSink() *countSink { return &countSink{counts: map[string]int64{}} }

func (c *countSink) Event(obs.Event)                   {}
func (c *countSink) PhaseEnd(obs.Phase, time.Duration) {}
func (c *countSink) Count(name string, delta int64) {
	c.mu.Lock()
	c.counts[name] += delta
	c.mu.Unlock()
}

func (c *countSink) get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[name]
}

// phaseSpans records the search's phases, from Stats.Timing, as child spans
// laid end to end from the search's start.
func phaseSpans(rec *recorder, op, parent uint64, start time.Time, t core.Timing) {
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"validate", t.Validate}, {"nullmodel", t.NullModel}, {"climb", t.Climb}, {"finalize", t.Finalize}} {
		rec.add("phase."+ph.name, op, parent, at, at.Add(ph.d), nil)
		at = at.Add(ph.d)
	}
}

// searchOutcome is one variant's result on one pair in one round.
type searchOutcome struct {
	res core.Result
	err error
}

// searchRound runs every variant on both pairs of inst with the given
// restart-worker count, returning per-variant wall time (both pairs) and the
// results.
func searchRound(r *run, inst searchInstance, workers int) (map[string]time.Duration, map[string][2]searchOutcome) {
	times := map[string]time.Duration{}
	outs := map[string][2]searchOutcome{}
	for _, v := range variants {
		op := r.spans.newOp()
		root := r.spans.start("search.variant", op, 0, map[string]string{"variant": v.name})
		var pairOut [2]searchOutcome
		start := time.Now()
		for i, sp := range []searchPair{inst.a, inst.b} {
			opts := sp.opts
			opts.Variant = v.v
			opts.RestartWorkers = workers
			labels := pprof.Labels("workload", "search", "variant", v.name, "pair", sp.name)
			ps := r.spans.start("core.SearchContext", op, root.id, map[string]string{"variant": v.name, "pair": sp.name})
			t0 := time.Now()
			pprof.Do(context.Background(), labels, func(ctx context.Context) {
				pairOut[i].res, pairOut[i].err = core.SearchContext(ctx, sp.pair, opts)
			})
			ps.end()
			if pairOut[i].err == nil {
				phaseSpans(r.spans, op, ps.id, t0, pairOut[i].res.Stats.Timing)
			}
		}
		times[v.name] = time.Since(start)
		root.end()
		outs[v.name] = pairOut
	}
	return times, outs
}

// plantedHits counts the planted segments covered by an accepted window: one
// at the planted delay (±1) that overlaps the segment by at least smin
// samples.
func plantedHits(ws []window.Scored, planted []synth.Segment, smin int) int {
	hits := 0
	for _, seg := range planted {
		for _, w := range ws {
			lo, hi := max(w.Start, seg.Start), min(w.End, seg.End)
			if d := w.Delay - seg.Delay; d >= -1 && d <= 1 && hi-lo+1 >= smin {
				hits++
				break
			}
		}
	}
	return hits
}

// round is the key under which searchTimes keeps whole rounds (every
// variant on both pairs of one instance).
const round = "round"

// searchTimes accumulates wall times per variant (and per round) and
// instance.
type searchTimes map[string][][]float64

func (st searchTimes) add(key string, inst int, d time.Duration) {
	if st[key] == nil {
		st[key] = make([][]float64, searchPool)
	}
	st[key][inst] = append(st[key][inst], seconds(d))
}

// value is the mean, over the instances of the pool, of the key's
// per-instance median.
func (st searchTimes) value(key string) float64 {
	var meds []float64
	for _, xs := range st[key] {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

// rounds is the number of rounds timed.
func (st searchTimes) rounds() int {
	n := 0
	for _, xs := range st[round] {
		n += len(xs)
	}
	return n
}

// total is the key's summed wall time in seconds: the time spent in the
// searches, without the benchmark's own output checks between them.
func (st searchTimes) total(key string) float64 {
	var sum float64
	for _, xs := range st[key] {
		for _, x := range xs {
			sum += x
		}
	}
	return sum
}

// firstPass is called once per result of the first pass over the pool and
// returns the result's output-check failure, if any.
type firstPass func(k int, variant string, pair int, res core.Result) error

// timedCycles runs whole passes over the pool for about r.seconds (at least
// one pass; see anotherPass), checking every repeated result against the
// first.
func timedCycles(r *run, insts []searchInstance, first map[string][]byte, check firstPass) searchTimes {
	times := searchTimes{}
	start := time.Now()
	for cycle := 0; cycle == 0 || anotherPass(start, cycle, r.seconds); cycle++ {
		for k, inst := range insts {
			ts, outs := searchRound(r, inst, runtime.NumCPU())
			var sum time.Duration
			for _, v := range variants {
				times.add(v.name, k, ts[v.name])
				sum += ts[v.name]
				for i, o := range outs[v.name] {
					err := o.err
					if err == nil {
						key := fmt.Sprintf("%s/%d/%d", v.name, k, i)
						b := canonical(o.res)
						if prev, ok := first[key]; ok {
							err = verify(string(prev) == string(b), "search %s instance %d pair %d: repeated result differs", v.name, k, i)
						} else {
							first[key] = b
						}
					}
					if err == nil && cycle == 0 && check != nil {
						err = check(k, v.name, i, o.res)
					}
					r.op(err)
				}
			}
			times.add(round, k, sum)
		}
	}
	return times
}

func runSearch(r *run) error {
	insts, err := searchInstances(r.seed)
	if err != nil {
		return err
	}

	// Set-up: five warm-up passes of every variant over the city pair of
	// the first instance; setup_s is their median.
	var setups []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for _, v := range variants {
			opts := insts[0].b.opts
			opts.Variant = v.v
			opts.RestartWorkers = runtime.NumCPU()
			_, err := core.SearchContext(context.Background(), insts[0].b.pair, opts)
			r.op(err)
		}
		setups = append(setups, seconds(time.Since(t0)))
	}

	first := map[string][]byte{}
	hits, planted := map[string]int{}, map[string]int{}
	windowsA := map[string][][]window.Scored{"L": make([][]window.Scored, len(insts)), "LN": make([][]window.Scored, len(insts))}
	// The variants without noise pruning must find at least one of the
	// planted segments of each pair (a). The noise variants trade accuracy
	// for speed by design (the paper's Table 4) and can prune both segments
	// away on some inputs, so their loss is measured rather than checked:
	// the accuracy.LN_vs_L and planted_recall.<V> details.
	check := func(k int, variant string, pair int, res core.Result) error {
		if pair != 0 {
			return nil
		}
		a := insts[k].a
		planted[variant] += len(a.planted)
		if ws, ok := windowsA[variant]; ok {
			ws[k] = res.Windows
		}
		h := plantedHits(res.Windows, a.planted, a.opts.SMin)
		hits[variant] += h
		return verify(h > 0 || variant == "LN" || variant == "LMN",
			"search %s instance %d: no planted segment of pair (a) found", variant, k)
	}

	if !r.traced {
		heap := startHeapSampler(50 * time.Millisecond)
		times := timedCycles(r, insts, first, check)
		r.set("peak_heap_mb", heap.stop(), "MB")
		r.set("setup_s", median(setups), "s")
		r.set("op_ms", 1e3*times.value(round), "ms")
		r.set("throughput_ops", float64(times.rounds())/times.total(round), "1/s")
		for _, v := range variants {
			r.detail("search_s."+v.name, times.value(v.name), "s")
		}
		var acc []float64
		for k := range insts {
			l, ln := windowsA["L"][k], windowsA["LN"][k]
			acc = append(acc, window.SymmetricMatchRate(window.MergeWithin(ln, 10), window.MergeWithin(l, 10)))
		}
		r.detail("accuracy.LN_vs_L", mean(acc), "%")
		for _, v := range variants {
			r.detail("planted_recall."+v.name, float64(hits[v.name])/float64(planted[v.name]), "ratio")
		}
	} else if err := tracedSearch(r, insts, first, check); err != nil {
		return err
	}

	// Worker-count invariance: the first instance searched with one restart
	// worker must reproduce the timed rounds' bytes.
	_, outs := searchRound(&run{}, insts[0], 1)
	for _, v := range variants {
		for i, o := range outs[v.name] {
			err := o.err
			if err == nil {
				key := fmt.Sprintf("%s/0/%d", v.name, i)
				err = verify(string(first[key]) == string(canonical(o.res)),
					"search %s pair %d: RestartWorkers 1 differs from RestartWorkers %d", v.name, i, runtime.NumCPU())
			}
			r.op(err)
		}
	}
	return nil
}

// tracedSearch is the per-layer run: one untraced pass over the pool (the
// baseline for the tracing overhead), one traced pass with spans and a CPU
// profile, then the layer probes on pair (a) of the first instance.
func tracedSearch(r *run, insts []searchInstance, first map[string][]byte, check firstPass) error {
	spans := r.spans
	r.spans = nil
	base := r.seconds
	r.seconds = 0 // one pass each
	plain := timedCycles(r, insts, first, check)
	r.spans = spans

	var nullMs []float64
	collect := func(k int, variant string, pair int, res core.Result) error {
		if pair == 1 {
			nullMs = append(nullMs, millis(res.Stats.Timing.NullModel))
		}
		return nil
	}
	rt := startRuntimeWindow()
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	traced := timedCycles(r, insts, first, collect)
	if err := prof.stop(r); err != nil {
		return err
	}
	rt.report(r, traced.rounds())
	r.seconds = base

	for _, v := range variants {
		r.detail("search_s."+v.name, plain.value(v.name), "s")
	}
	r.detail("core.null_ms", median(nullMs), "ms")
	r.detail("search.speedup.LM_vs_L", plain.value("L")/plain.value("LM"), "ratio")
	r.detail("search.speedup.LMN_vs_LN", plain.value("LN")/plain.value("LMN"), "ratio")
	r.detail("search.speedup.LN_vs_L", plain.value("L")/plain.value("LN"), "ratio")
	r.set("obs.trace_overhead", traced.value(round)/plain.value(round), "ratio")

	// Layer probes on pair (a) of the first instance, with ladder windows at
	// the sizes the search visits (s_min to s_max).
	a := insts[0].a
	return layerProbes(r, a.pair, a.opts, []int{16, 64, 256})
}
