package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestSnapshotEmpty(t *testing.T) {
	s := NewRegistry().Snapshot()
	if len(s.Events) != 0 || len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Phases) != 0 {
		t.Fatalf("empty registry produced a non-empty snapshot: %+v", s)
	}
}

// Phase quantiles are the upper bound of the log₂ bucket (1µs·2^i) holding
// the nearest-rank sample; Count and Total stay exact.

func TestSnapshotQuantileSingleSample(t *testing.T) {
	r := NewRegistry()
	r.PhaseEnd(Phase("climb"), 7*time.Millisecond)
	st := r.Snapshot().Phases[Phase("climb")]
	want := 8192 * time.Microsecond // 7ms lies in (4096µs, 8192µs]
	if st.Count != 1 || st.P50 != want || st.P99 != want || st.Total != 7*time.Millisecond {
		t.Fatalf("single-sample stats = %+v, want quantiles %v, total 7ms", st, want)
	}
	// A sample on a bucket bound belongs to that bucket.
	r.PhaseEnd(Phase("edge"), 4096*time.Microsecond)
	if st := r.Snapshot().Phases[Phase("edge")]; st.P50 != 4096*time.Microsecond {
		t.Fatalf("bound sample P50 = %v, want 4.096ms", st.P50)
	}
}

func TestSnapshotQuantileAllEqual(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.PhaseEnd(Phase("climb"), 3*time.Millisecond)
	}
	st := r.Snapshot().Phases[Phase("climb")]
	want := 4096 * time.Microsecond
	if st.P50 != want || st.P99 != want {
		t.Fatalf("all-equal stats = %+v, want quantiles %v", st, want)
	}
	if st.Total != 150*time.Millisecond {
		t.Fatalf("total = %v, want 150ms", st.Total)
	}
}

func TestSnapshotQuantileNearestRank(t *testing.T) {
	r := NewRegistry()
	// 100 distinct samples 1ms..100ms, inserted out of order: rank 50 is
	// 50ms ∈ (32.768ms, 65.536ms], rank 99 is 99ms ∈ (65.536ms, 131.072ms].
	for i := 100; i >= 1; i-- {
		r.PhaseEnd(Phase("climb"), time.Duration(i)*time.Millisecond)
	}
	st := r.Snapshot().Phases[Phase("climb")]
	if st.P50 != 65536*time.Microsecond {
		t.Fatalf("P50 = %v, want 65.536ms", st.P50)
	}
	if st.P99 != 131072*time.Microsecond {
		t.Fatalf("P99 = %v, want 131.072ms", st.P99)
	}

	// Two samples: nearest-rank P50 is the smaller one (ceil(2·0.5) = rank 1).
	r.PhaseEnd(Phase("x"), 1*time.Millisecond)
	r.PhaseEnd(Phase("x"), 9*time.Millisecond)
	st2 := r.Snapshot().Phases[Phase("x")]
	if st2.P50 != 1024*time.Microsecond {
		t.Fatalf("two-sample P50 = %v, want 1.024ms", st2.P50)
	}
	if st2.P99 != 16384*time.Microsecond {
		t.Fatalf("two-sample P99 = %v, want 16.384ms", st2.P99)
	}

	// Past the last finite bound (~19h) the quantile is unbounded.
	r.PhaseEnd(Phase("stuck"), 24*time.Hour)
	if st := r.Snapshot().Phases[Phase("stuck")]; st.P50 != time.Duration(math.MaxInt64) || st.Total != 24*time.Hour {
		t.Fatalf("overflow stats = %+v", st)
	}
}

// TestMetricsSnapshotHammer drives every Sink method and Snapshot from many
// goroutines at once; run under -race it is the aggregator's concurrency
// regression test, and the final totals check that no update was lost.
func TestMetricsSnapshotHammer(t *testing.T) {
	m := NewRegistry()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Event(ClimbFinished{Restart: i})
				m.Count("steps", 2)
				m.Gauge("depth", int64(i))
				m.PhaseEnd(Phase("climb"), time.Duration(i)*time.Microsecond)
				if i%50 == 0 {
					s := m.Snapshot()
					if got := s.Phases[Phase("climb")]; got.Count > 0 && got.P50 > got.P99 {
						t.Errorf("inconsistent snapshot: %+v", got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if got := s.Events["ClimbFinished"]; got != workers*perWorker {
		t.Fatalf("events = %d, want %d", got, workers*perWorker)
	}
	if got := s.Counters["steps"]; got != 2*workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, 2*workers*perWorker)
	}
	if got := s.Phases[Phase("climb")].Count; got != workers*perWorker {
		t.Fatalf("phase samples = %d, want %d", got, workers*perWorker)
	}
	if _, ok := s.Gauges["depth"]; !ok {
		t.Fatal("gauge missing from snapshot")
	}
}

// TestExpvarGaugeReuse: a gauge published through expvar shows the last
// level set, not a running sum, and a warm Gauge call does not allocate.
func TestExpvarGaugeReuse(t *testing.T) {
	r := PublishExpvar("test.gauge.reuse")
	r.Gauge("depth", 3)
	r.Gauge("depth", 8)
	var vars map[string]int64
	if err := json.Unmarshal([]byte(expvar.Get("test.gauge.reuse").String()), &vars); err != nil {
		t.Fatal(err)
	}
	if got := vars["gauges.depth"]; got != 8 {
		t.Fatalf("gauge value = %d, want 8", got)
	}
	if n := testing.AllocsPerRun(100, func() { r.Gauge("depth", 5) }); n != 0 {
		t.Fatalf("steady-state Gauge allocates %v times per call, want 0", n)
	}
}

// TestSnapshotDetached guards against snapshot aliasing: mutating the source
// after Snapshot must not change the snapshot.
func TestSnapshotDetached(t *testing.T) {
	m := NewRegistry()
	m.Count("steps", 1)
	m.PhaseEnd(Phase("climb"), time.Millisecond)
	s := m.Snapshot()
	m.Count("steps", 100)
	m.PhaseEnd(Phase("climb"), time.Hour)
	if s.Counters["steps"] != 1 {
		t.Fatalf("snapshot counter mutated: %d", s.Counters["steps"])
	}
	if st := s.Phases[Phase("climb")]; st.Count != 1 || st.Total != time.Millisecond {
		t.Fatalf("snapshot phase mutated: %+v", s.Phases[Phase("climb")])
	}
	_ = fmt.Sprintf("%+v", s) // snapshots must be printable (no private state)
}
