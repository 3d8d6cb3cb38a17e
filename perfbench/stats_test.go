package main

import (
	"bytes"
	"math"
	"testing"

	"tycos/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0},       // not even the median has ten beyond
		{20, 0.5},    // 10 beyond the median
		{99, 0.5},    // p90 has 9 beyond
		{100, 0.9},   // p90 has exactly 10 beyond
		{199, 0.9},   // p95 has 9 beyond
		{200, 0.95},  // p95 has 10 beyond
		{1000, 0.99}, // p99 has 10 beyond
		{10000, 0.999},
	} {
		if got := tailQuantile(c.n, 10); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// scrape renders a registry's exposition, as /metrics serves it.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestHistQuantileFromScrapeDifference(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("tycos_queue_wait_seconds", "test")
	// Observations before the first scrape must not count.
	for i := 0; i < 1000; i++ {
		h.Observe(10)
	}
	a, err := parsePromHistogram(scrape(t, reg), "tycos_queue_wait_seconds")
	if err != nil {
		t.Fatal(err)
	}
	// Between the scrapes: 90 observations at 3ms, 10 at 40ms.
	for i := 0; i < 90; i++ {
		h.Observe(0.003)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.040)
	}
	b, err := parsePromHistogram(scrape(t, reg), "tycos_queue_wait_seconds")
	if err != nil {
		t.Fatal(err)
	}
	_, overflow, count, sum, err := histDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 || overflow != 0 || math.Abs(sum-(90*0.003+10*0.040)) > 1e-9 {
		t.Fatalf("diff: count %g overflow %g sum %g", count, overflow, sum)
	}
	// Log₂ buckets bound the error by a factor of two either way.
	for _, c := range []struct{ q, want float64 }{{0.5, 0.003}, {0.85, 0.003}, {0.95, 0.040}} {
		got, err := histQuantile(a, b, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("q=%g: got %g, want within 2× of %g", c.q, got, c.want)
		}
	}
	// No observations between two identical scrapes: NaN, not a stale value.
	if q, err := histQuantile(b, b, 0.5); err != nil || !math.IsNaN(q) {
		t.Errorf("empty difference: got %g, %v", q, err)
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	// Two buckets, (0.5, 1] and (1, 2]: 4 observations in the second.
	a := promHistogram{Bounds: []float64{1, 2}, Cum: []float64{0, 0}}
	b := promHistogram{Bounds: []float64{1, 2}, Cum: []float64{0, 4}, Count: 4}
	got, err := histQuantile(a, b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt2; math.Abs(got-want) > 1e-12 {
		t.Errorf("median = %g, want the bucket's geometric midpoint %g", got, want)
	}
	if _, err := histQuantile(promHistogram{Bounds: []float64{1}, Cum: []float64{0}}, b, 0.5); err == nil {
		t.Error("different layouts should be an error")
	}
}
