package main

import (
	"bufio"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the q-th quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. An
// empty input gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailQuantiles are the candidate tail percentiles, highest last.
var tailQuantiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// tailQuantile returns the highest of tailQuantiles that leaves at least
// minBeyond of n samples strictly above its nearest-rank position, so the
// reported tail rests on that many observations. It returns 0 when not even
// the median qualifies.
func tailQuantile(n, minBeyond int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= minBeyond {
			best = q
		}
	}
	return best
}

// tailSummary renders the median and the supported tail of xs for the
// stderr report, with the sample count.
func tailSummary(xs []float64) string {
	q := tailQuantile(len(xs), 10)
	if q <= 0 {
		return fmt.Sprintf("n=%d (too few samples for a tail)", len(xs))
	}
	return fmt.Sprintf("n=%d p50=%.3f p%g=%.3f", len(xs), median(xs), 100*q, percentile(xs, q))
}

// promHistogram is one Prometheus histogram read from a text exposition:
// cumulative counts per finite upper bound, ascending, plus the +Inf total.
type promHistogram struct {
	Bounds []float64
	Cum    []float64
	Count  float64
	Sum    float64
}

// parsePromHistogram extracts the unlabelled histogram name from a
// Prometheus text exposition. A missing histogram is an error.
func parsePromHistogram(text, name string) (promHistogram, error) {
	var h promHistogram
	found := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			rest := line[len(name+"_bucket{le=\""):]
			le, val, ok := strings.Cut(rest, "\"} ")
			if !ok {
				return h, fmt.Errorf("malformed bucket line %q", line)
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return h, fmt.Errorf("bucket line %q: %w", line, err)
			}
			found = true
			if le == "+Inf" {
				h.Count = v
				continue
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return h, fmt.Errorf("bucket bound %q: %w", le, err)
			}
			h.Bounds = append(h.Bounds, b)
			h.Cum = append(h.Cum, v)
		case strings.HasPrefix(line, name+"_sum "):
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name+"_sum "):]), 64)
			if err != nil {
				return h, fmt.Errorf("sum line %q: %w", line, err)
			}
			h.Sum = v
		}
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if !found {
		return h, fmt.Errorf("histogram %s not in exposition", name)
	}
	return h, nil
}

// histDiff returns the observations b holds beyond a (b scraped after a
// from the same monotonic histogram): per-bucket counts, the count in the
// +Inf overflow, and the sums' difference.
func histDiff(a, b promHistogram) (counts []float64, overflow, count, sum float64, err error) {
	if len(a.Bounds) != len(b.Bounds) {
		return nil, 0, 0, 0, fmt.Errorf("histogram layouts differ (%d vs %d buckets)", len(a.Bounds), len(b.Bounds))
	}
	counts = make([]float64, len(b.Bounds))
	prevA, prevB := 0.0, 0.0
	for i := range b.Bounds {
		if math.Abs(a.Bounds[i]-b.Bounds[i]) > 1e-9*b.Bounds[i] {
			return nil, 0, 0, 0, fmt.Errorf("bucket %d bound %g vs %g", i, a.Bounds[i], b.Bounds[i])
		}
		counts[i] = (b.Cum[i] - prevB) - (a.Cum[i] - prevA)
		prevA, prevB = a.Cum[i], b.Cum[i]
	}
	overflow = (b.Count - prevB) - (a.Count - prevA)
	return counts, overflow, b.Count - a.Count, b.Sum - a.Sum, nil
}

// histQuantile returns the q-th quantile of the observations between two
// scrapes of a log₂-bucket histogram. Within the bucket holding the target
// rank it interpolates geometrically between the bucket's bounds (the lower
// bound of a doubling bucket is half its upper), which is exact for values
// spread log-uniformly in the bucket. It returns NaN when no observation
// fell between the scrapes, and +Inf when the quantile lies in the overflow.
func histQuantile(a, b promHistogram, q float64) (float64, error) {
	counts, overflow, total, _, err := histDiff(a, b)
	if err != nil {
		return 0, err
	}
	if total <= 0 {
		return math.NaN(), nil
	}
	target := q * total
	cum := 0.0
	for i, c := range counts {
		if c > 0 && cum+c >= target {
			upper := b.Bounds[i]
			lower := upper / 2
			if i > 0 {
				lower = b.Bounds[i-1]
			}
			frac := (target - cum) / c
			return lower * math.Pow(upper/lower, frac), nil
		}
		cum += c
	}
	if overflow > 0 {
		return math.Inf(1), nil
	}
	return b.Bounds[len(b.Bounds)-1], nil
}

// heapSampler records the largest live-heap reading seen between start and
// stop, polling runtime/metrics (which does not stop the world).
type heapSampler struct {
	stopc    chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	peak     uint64
	panicked any // re-raised by stop on the caller's goroutine
}

// heapBytes reads the heap bytes the last garbage collection found live.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler starts polling every interval until stop is called.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{}), peak: heapBytes()}
	go func() {
		defer close(h.done)
		defer func() { h.panicked = recover() }()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				v := heapBytes()
				h.mu.Lock()
				if v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// stop ends the polling, waits for the poller to exit and returns the peak
// in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	if h.panicked != nil {
		panic(h.panicked)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if v := heapBytes(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// cpuCounters reads the process's cumulative CPU time split by the runtime
// into total and garbage collection, in seconds.
func cpuCounters() (total, gc float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		total = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gc = s[1].Value.Float64()
	}
	return total, gc
}

// allocCounter reads the cumulative bytes allocated on the heap.
func allocCounter() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runtimeWindow measures the runtime-level per-layer metrics over a phase:
// the share of CPU time spent in garbage collection and the heap bytes
// allocated per operation.
type runtimeWindow struct {
	cpu0, gc0 float64
	alloc0    uint64
}

func startRuntimeWindow() runtimeWindow {
	cpu, gc := cpuCounters()
	return runtimeWindow{cpu0: cpu, gc0: gc, alloc0: allocCounter()}
}

// report sets runtime.gc_cpu_share and runtime.alloc_mb_per_op for ops
// operations completed since start.
func (w runtimeWindow) report(r *run, ops int) {
	cpu, gc := cpuCounters()
	if cpu > w.cpu0 {
		r.set("runtime.gc_cpu_share", (gc-w.gc0)/(cpu-w.cpu0), "ratio")
	}
	if ops > 0 {
		r.set("runtime.alloc_mb_per_op", float64(allocCounter()-w.alloc0)/(1<<20)/float64(ops), "MB")
	}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(heapBytes()) / (1 << 20)
}

// anotherPass reports whether a timed loop that has run done whole passes
// since start should run one more: only while the phase is shorter than
// secs, and only when the next pass is expected to end within a quarter
// over secs, so a pass slightly shorter than secs does not double the run.
func anotherPass(start time.Time, done int, secs float64) bool {
	el := time.Since(start).Seconds()
	return el < secs && el*float64(done+1)/float64(done) <= 1.25*secs
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
