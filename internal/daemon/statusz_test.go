package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"
	"time"

	"tycos/internal/obs"
)

func keySet[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s keys = %v\nwant %v", what, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s keys = %v\nwant %v", what, got, want)
			return
		}
	}
}

// TestStatuszShape pins the /statusz JSON contract after one ingest and one
// search: the top-level key set, and events/counters/gauges keyed by the raw
// emitted names (event kinds and dotted counter/gauge names, not the
// sanitized Prometheus names /metrics uses).
func TestStatuszShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SampleInterval: -1})
	x, y := testSeries(160, 2)
	ingest(t, ts.URL, "x", x)
	ingest(t, ts.URL, "y", y)
	resp := postJSON(t, ts.URL+"/v1/search", searchBody())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}

	_, body := getBody(t, ts.URL+"/statusz")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	sameKeys(t, "statusz", keySet(top), []string{"draining", "workers", "queue_cap", "queue_depth",
		"inflight", "series", "events", "counters", "gauges"})

	var st struct {
		Events, Counters, Gauges map[string]int64
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	sameKeys(t, "counters", keySet(st.Counters), []string{
		"daemon.ingest_points", "daemon.search_requests",
		"mi.inc_inserts", "mi.inc_refreshes", "mi.inc_removes", "mi_batch", "mi_incremental",
		"noise_blocks", "pruned_directions", "restarts", "windows_evaluated",
	})
	sameKeys(t, "gauges", keySet(st.Gauges), []string{"draining", "inflight", "queue_depth",
		"runtime.gc_cycles", "runtime.gc_pause_total_ns", "runtime.goroutines", "runtime.heap_bytes"})
	for _, kind := range []string{"RestartStarted", "ClimbFinished", "CandidateAccepted"} {
		if st.Events[kind] <= 0 {
			t.Errorf("events[%s] = %d, want > 0 (events %v)", kind, st.Events[kind], st.Events)
		}
	}
	if st.Events["ClimbFinished"] != st.Counters["restarts"] {
		t.Errorf("ClimbFinished = %d, restarts = %d", st.Events["ClimbFinished"], st.Counters["restarts"])
	}
	if got := st.Counters["daemon.ingest_points"]; got != 320 {
		t.Errorf("daemon.ingest_points = %d, want 320", got)
	}
	if got := st.Counters["daemon.search_requests"]; got != 1 {
		t.Errorf("daemon.search_requests = %d, want 1", got)
	}
}

// TestTelemetryMemoryBounded drives 1e5 searches' worth of emissions into the
// daemon's sink: per search four phase timings, one event of each kind a
// search emits, the search's counter totals, the daemon's request counter
// and the admission gauges. Telemetry aggregates into fixed-size state, so
// the live heap must not grow with the number of searches, and a /statusz
// render at the end must allocate about what one at the start did.
func TestTelemetryMemoryBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, SampleInterval: -1})
	events := []obs.Event{
		obs.RestartStarted{Pair: "x/y"}, obs.ClimbFinished{Pair: "x/y"},
		obs.CandidateAccepted{Pair: "x/y"}, obs.DirectionPruned{Pair: "x/y"},
	}
	phases := []obs.Phase{obs.PhaseValidate, obs.PhaseNullModel, obs.PhaseClimb, obs.PhaseFinalize}
	counters := []string{"windows_evaluated", "restarts", "mi_batch", "mi_incremental",
		"pruned_directions", "noise_blocks", "mi.inc_inserts", "mi.inc_removes", "mi.inc_refreshes"}
	search := func(i int) {
		s.sink.Count("daemon.search_requests", 1)
		obs.SetGauge(s.sink, "queue_depth", int64(i%4))
		obs.SetGauge(s.sink, "inflight", 1)
		for _, e := range events {
			s.sink.Event(e)
		}
		for j, p := range phases {
			s.sink.PhaseEnd(p, time.Duration(1+(i+j)%5000)*time.Microsecond)
		}
		for j, c := range counters {
			s.sink.Count(c, int64(j+1))
		}
		obs.SetGauge(s.sink, "inflight", 0)
	}
	statuszBytes := func() uint64 {
		req := httptest.NewRequest(http.MethodGet, "/statusz", nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	search(0) // every series exists from here on
	start := statuszBytes()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	const searches = 100_000
	for i := 1; i <= searches; i++ {
		search(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	const heapBudget = 256 << 10
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > heapBudget {
		t.Errorf("live heap grew %d B over %d searches' telemetry, budget %d B", grew, searches, heapBudget)
	}
	if end := statuszBytes(); end > 2*start+16<<10 {
		t.Errorf("/statusz allocates %d B after %d searches, %d B at the start", end, searches, start)
	}
}
