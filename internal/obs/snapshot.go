package obs

import (
	"expvar"
	"math"
	"sync"
	"time"
)

// PhaseStats summarises one phase's durations, read from the registry's
// log₂-bucketed phase histogram. Count and Total are exact; P50 and P99 are
// the upper bound of the bucket holding the nearest-rank sample, so they
// never understate the quantile and overstate it by less than one bucket
// (2×) above 1µs.
type PhaseStats struct {
	Count int
	Total time.Duration
	P50   time.Duration
	P99   time.Duration
}

// Snapshot is a detached point-in-time copy of what a Registry received
// through the Sink interface.
type Snapshot struct {
	// Events maps event kind → occurrences.
	Events map[string]int64
	// Counters maps raw counter name → total.
	Counters map[string]int64
	// Gauges maps raw gauge name → last level set.
	Gauges map[string]int64
	// Phases maps phase → duration distribution summary.
	Phases map[Phase]PhaseStats
}

// Snapshot returns the Sink-fed aggregate: events by kind, counters and
// gauges by their raw emitted names, and a summary per timed phase. Its size
// depends on the number of distinct names, never on how often they were
// emitted. The receiver keeps aggregating; the snapshot is detached.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	s := Snapshot{
		Events:   make(map[string]int64),
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Phases:   make(map[Phase]PhaseStats),
	}
	for name, series := range r.counters {
		s.Counters[name] = series.Value()
	}
	for name, series := range r.gauges {
		s.Gauges[name] = series.Value()
	}
	r.mu.RUnlock()
	r.events.fam.each(func(kind string, series *Series) {
		s.Events[kind] = series.Value()
	})
	r.phases.fam.each(func(phase string, series *Series) {
		h := series.hist.Snapshot()
		if h.Count == 0 {
			return // created by a concurrent PhaseEnd that has not observed yet
		}
		s.Phases[Phase(phase)] = PhaseStats{
			Count: int(h.Count),
			Total: time.Duration(math.Round(h.Sum * float64(time.Second))),
			P50:   bucketQuantile(h, 50),
			P99:   bucketQuantile(h, 99),
		}
	})
	return s
}

// each calls fn for every series of a single-label family, keyed by its
// label value, under the family's read lock.
func (f *family) each(fn func(key string, s *Series)) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for k, s := range f.series {
		fn(k, s)
	}
}

// bucketQuantile returns the upper bound of the bucket holding the
// nearest-rank p-th percentile — the ceil(n·p/100)-th smallest observation.
// h.Count must be positive.
func bucketQuantile(h HistogramSnapshot, p int64) time.Duration {
	rank := max((h.Count*p+99)/100, 1)
	var cum int64
	for i, n := range h.Buckets {
		if cum += n; cum >= rank {
			return time.Microsecond << uint(i) // HistogramUpper(i) seconds, exactly
		}
	}
	return time.Duration(math.MaxInt64) // the +Inf overflow bucket
}

// CounterTotal returns the total of the named Sink counter (0 if never
// counted).
func (r *Registry) CounterTotal(name string) int64 { return r.sinkValue(r.counters, name) }

// GaugeValue returns the last level set for the named gauge (0 if never
// set).
func (r *Registry) GaugeValue(name string) int64 { return r.sinkValue(r.gauges, name) }

func (r *Registry) sinkValue(byName map[string]*Series, name string) int64 {
	r.mu.RLock()
	s := byName[name]
	r.mu.RUnlock()
	if s == nil {
		return 0
	}
	return s.Value()
}

// EventCount returns the number of events of the given kind seen so far.
func (r *Registry) EventCount(kind string) int64 {
	f := r.events.fam
	f.mu.RLock()
	s := f.series[kind]
	f.mu.RUnlock()
	if s == nil {
		return 0
	}
	return s.Value()
}

// vars flattens the snapshot into the /debug/vars key set:
//
//	events.<Kind>      — occurrences of each event kind
//	counters.<name>    — counter totals
//	gauges.<name>      — last level set for each gauge
//	phase.<p>.count    — completed runs of each phase
//	phase.<p>.ns       — cumulative nanoseconds spent in each phase
func (s Snapshot) vars() map[string]int64 {
	out := make(map[string]int64, len(s.Events)+len(s.Counters)+len(s.Gauges)+2*len(s.Phases))
	for k, v := range s.Events {
		out["events."+k] = v
	}
	for k, v := range s.Counters {
		out["counters."+k] = v
	}
	for k, v := range s.Gauges {
		out["gauges."+k] = v
	}
	for p, st := range s.Phases {
		out["phase."+string(p)+".count"] = int64(st.Count)
		out["phase."+string(p)+".ns"] = int64(st.Total)
	}
	return out
}

var (
	expvarMu         sync.Mutex
	expvarRegistries = map[string]*Registry{}
)

// PublishExpvar returns a registry published in the process-wide expvar set
// under name as one expvar.Func rendering its snapshot (see vars), so any
// process serving expvar (e.g. tycos -pprof) shows it on /debug/vars.
// Calling it again with the same name returns the same registry, so
// repeated searches in one process accumulate into one published object.
func PublishExpvar(name string) *Registry {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if r, ok := expvarRegistries[name]; ok {
		return r
	}
	r := NewRegistry()
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot().vars() }))
	expvarRegistries[name] = r
	return r
}
