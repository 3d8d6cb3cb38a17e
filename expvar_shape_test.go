package tycos_test

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tycos"
)

// recordingObserver tallies every observation the way /debug/vars should
// publish it, so the published values can be checked against what the
// search actually emitted.
type recordingObserver struct {
	mu   sync.Mutex
	vars map[string]int64
}

func (r *recordingObserver) add(key string, delta int64) {
	r.mu.Lock()
	r.vars[key] += delta
	r.mu.Unlock()
}

func (r *recordingObserver) Event(e tycos.Event)            { r.add("events."+e.Kind(), 1) }
func (r *recordingObserver) Count(name string, delta int64) { r.add("counters."+name, delta) }
func (r *recordingObserver) PhaseEnd(p tycos.Phase, d time.Duration) {
	r.add("phase."+string(p)+".count", 1)
	r.add("phase."+string(p)+".ns", int64(d))
}
func (r *recordingObserver) Gauge(name string, value int64) {
	r.mu.Lock()
	r.vars["gauges."+name] = value
	r.mu.Unlock()
}

// debugVars fetches /debug/vars through the expvar handler and returns the
// object published under name.
func debugVars(t *testing.T, name string) map[string]int64 {
	t.Helper()
	ts := httptest.NewServer(expvar.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	raw, ok := all[name]
	if !ok {
		t.Fatalf("/debug/vars has no %q entry", name)
	}
	var vars map[string]int64
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("decode /debug/vars[%q]: %v\n%s", name, err, raw)
	}
	return vars
}

// expvarSeq keeps published names unique across -count repetitions: expvar
// names cannot be unpublished, so a reused name would carry earlier totals.
var expvarSeq atomic.Int64

func uniqueExpvarName(base string) string { return fmt.Sprintf("%s_%d", base, expvarSeq.Add(1)) }

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestExpvarObserverDebugVarsShape pins the /debug/vars contract of
// NewExpvarObserver: after one search the published object holds exactly
// events.<Kind>, counters.<name>, phase.<p>.count and phase.<p>.ns, with
// the totals the search emitted.
func TestExpvarObserverDebugVarsShape(t *testing.T) {
	name := uniqueExpvarName("tycos_shape_search")
	rec := &recordingObserver{vars: map[string]int64{}}
	opts := tycos.Options{SMin: 10, SMax: 80, TDMax: 5, Sigma: 0.25, Variant: tycos.VariantLMN}
	opts.Observer = tycos.MultiObserver(tycos.NewExpvarObserver(name), rec)
	if _, err := tycos.Search(examplePair(1), opts); err != nil {
		t.Fatal(err)
	}
	got := debugVars(t, name)
	for _, key := range []string{"events.ClimbFinished", "events.RestartStarted", "counters.windows_evaluated",
		"phase.validate.count", "phase.validate.ns", "phase.climb.count", "phase.climb.ns",
		"phase.finalize.count", "phase.finalize.ns"} {
		if _, ok := got[key]; !ok {
			t.Errorf("/debug/vars lacks %s", key)
		}
	}
	if g, w := sortedKeys(got), sortedKeys(rec.vars); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("/debug/vars keys = %v\nwant %v", g, w)
	}
	for key, want := range rec.vars {
		if got[key] != want {
			t.Errorf("/debug/vars %s = %d, want %d", key, got[key], want)
		}
	}
}

// TestExpvarObserverSameNameAccumulates: a second NewExpvarObserver with the
// same name attaches to the published object instead of panicking, and both
// observers accumulate into it.
func TestExpvarObserverSameNameAccumulates(t *testing.T) {
	name := uniqueExpvarName("tycos_shape_shared")
	a := tycos.NewExpvarObserver(name)
	a.Count("evals", 5)
	a.Event(tycos.ClimbFinished{})
	b := tycos.NewExpvarObserver(name)
	b.Count("evals", 1)
	b.Event(tycos.ClimbFinished{})
	b.PhaseEnd(tycos.Phase("climb"), 3*time.Millisecond)

	got := debugVars(t, name)
	want := map[string]int64{
		"counters.evals":       6,
		"events.ClimbFinished": 2,
		"phase.climb.count":    1,
		"phase.climb.ns":       int64(3 * time.Millisecond),
	}
	if len(got) != len(want) {
		t.Fatalf("/debug/vars = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}
