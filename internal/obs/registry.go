package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a Prometheus-style metric registry: named families of
// counters, gauges and histograms, optionally split by label values, with a
// text-exposition renderer (WritePrometheus) for a /metrics endpoint.
//
// It doubles as a Sink (+GaugeSink), so plugging it into an Observer fan-out
// turns the search's event/counter/phase stream into scrapeable series with
// no extra wiring:
//
//	search events  → tycos_search_events_total{kind="ClimbFinished"}
//	counters       → tycos_<name>_total (name sanitized)
//	phase timings  → tycos_search_phase_duration_seconds{phase="climb"}
//	gauges         → tycos_<name>
//
// Snapshot reads the Sink-fed part back (events, counters and gauges by
// their raw names, phase summaries from the phase histogram): it is the
// single in-memory aggregate behind /metrics, /statusz and /debug/vars.
//
// Hot-path behaviour: after a family/series exists, every update is a
// read-locked map lookup plus an atomic op — no allocation. Creating a
// series (first sight of a label value) takes the write lock once.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	// counters and gauges map the raw names arriving through the Sink
	// interface ("daemon.search_failed") to their series: a warm emission
	// is one read-locked lookup plus an atomic op, and Snapshot reports the
	// names as they were emitted rather than their sanitized forms.
	counters map[string]*Series
	gauges   map[string]*Series

	events *Vec // tycos_search_events_total{kind}
	phases *Vec // tycos_search_phase_duration_seconds{phase}
}

// metricKind is the Prometheus type of one family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with its label schema and series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu     sync.RWMutex
	series map[string]*Series // joined label values → series
}

// Series is one (family, label values) time series: a counter, a gauge or a
// histogram, depending on the family's kind. Counter/gauge state is a single
// atomic; histograms embed a Histogram.
type Series struct {
	labels []string
	val    atomic.Int64
	hist   *Histogram
}

// Add increments a counter series.
func (s *Series) Add(delta int64) { s.val.Add(delta) }

// Inc increments a counter series by one.
func (s *Series) Inc() { s.val.Add(1) }

// Set sets a gauge series.
func (s *Series) Set(v int64) { s.val.Store(v) }

// Value returns the current counter/gauge value.
func (s *Series) Value() int64 { return s.val.Load() }

// Observe records one observation on a histogram series.
func (s *Series) Observe(v float64) { s.hist.Observe(v) }

// ObserveDuration records a duration in seconds on a histogram series.
func (s *Series) ObserveDuration(d time.Duration) { s.hist.ObserveDuration(d) }

// Hist exposes the underlying histogram of a histogram series.
func (s *Series) Hist() *Histogram { return s.hist }

// Vec is a handle on one family: With resolves (creating on first sight)
// the series for a tuple of label values. An unlabeled family is a Vec used
// with zero label values.
type Vec struct {
	fam *family
}

// labelSep joins label values into series keys; 0x1f (unit separator)
// cannot appear in sane label values, and even if it does the worst case is
// two tuples sharing a series, never a rendering error.
const labelSep = "\x1f"

// With returns the series for the given label values, creating it on first
// use. The value count must match the family's label schema.
func (v *Vec) With(values ...string) *Series {
	if len(values) != len(v.fam.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d",
			v.fam.name, len(v.fam.labels), len(values)))
	}
	key := ""
	if len(values) == 1 {
		key = values[0] // common case: no join allocation
	} else if len(values) > 1 {
		key = strings.Join(values, labelSep)
	}
	v.fam.mu.RLock()
	s, ok := v.fam.series[key]
	v.fam.mu.RUnlock()
	if ok {
		return s
	}
	v.fam.mu.Lock()
	defer v.fam.mu.Unlock()
	if s, ok := v.fam.series[key]; ok {
		return s
	}
	s = &Series{labels: append([]string(nil), values...)}
	if v.fam.kind == kindHistogram {
		s.hist = NewHistogram()
	}
	v.fam.series[key] = s
	return s
}

// NewRegistry returns a registry pre-wired with the search-event and
// search-phase families the Sink implementation feeds.
func NewRegistry() *Registry {
	r := &Registry{
		families: make(map[string]*family),
		counters: make(map[string]*Series),
		gauges:   make(map[string]*Series),
	}
	r.events = r.CounterVec("tycos_search_events_total",
		"Search events observed, by event kind.", "kind")
	r.phases = r.HistogramVec("tycos_search_phase_duration_seconds",
		"Wall-clock duration of search phases, by phase.", "phase")
	return r
}

// register creates (or returns the existing) family. Re-registering with a
// different kind or label schema panics — that is a programming error the
// first scrape would otherwise surface as a corrupt exposition.
func (r *Registry) register(name, help string, kind metricKind, labels ...string) *Vec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type or label schema", name))
		}
		return &Vec{fam: f}
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]*Series),
	}
	r.families[name] = f
	return &Vec{fam: f}
}

// Counter registers (or fetches) an unlabeled counter and returns its single
// series.
func (r *Registry) Counter(name, help string) *Series {
	return r.register(name, help, kindCounter).With()
}

// GaugeSeries registers (or fetches) an unlabeled gauge and returns its
// single series. (The name avoids the Gauge method, which is the GaugeSink
// implementation.)
func (r *Registry) GaugeSeries(name, help string) *Series {
	return r.register(name, help, kindGauge).With()
}

// Histogram registers (or fetches) an unlabeled histogram and returns its
// single series.
func (r *Registry) Histogram(name, help string) *Series {
	return r.register(name, help, kindHistogram).With()
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec {
	return r.register(name, help, kindCounter, labels...)
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *Vec {
	return r.register(name, help, kindGauge, labels...)
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *Vec {
	return r.register(name, help, kindHistogram, labels...)
}

// sanitizeName maps an arbitrary counter/gauge name onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_] (dots and dashes become underscores).
func sanitizeName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// sinkSeries resolves the series behind a raw Sink counter or gauge name,
// registering tycos_<sanitized name>_total (counters) or
// tycos_<sanitized name> (gauges) on first sight. Raw names that sanitize
// alike share one series.
func (r *Registry) sinkSeries(byName map[string]*Series, name string, kind metricKind) *Series {
	r.mu.RLock()
	s, ok := byName[name]
	r.mu.RUnlock()
	if ok {
		return s
	}
	prom, help := "tycos_"+sanitizeName(name), "Current level of the "+name+" gauge."
	if kind == kindCounter {
		prom, help = prom+"_total", "Cumulative total of the "+name+" search counter."
	}
	s = r.register(prom, help, kind).With()
	r.mu.Lock()
	byName[name] = s
	r.mu.Unlock()
	return s
}

// Event implements Sink: one counter increment per event, keyed by kind.
// Traced wrappers delegate Kind, so stamped and plain events aggregate
// identically.
func (r *Registry) Event(e Event) { r.events.With(e.Kind()).Inc() }

// Count implements Sink: dynamic counters surface as
// tycos_<sanitized name>_total.
func (r *Registry) Count(name string, delta int64) {
	r.sinkSeries(r.counters, name, kindCounter).Add(delta)
}

// PhaseEnd implements Sink: phase durations land in the per-phase histogram.
func (r *Registry) PhaseEnd(p Phase, d time.Duration) {
	r.phases.With(string(p)).ObserveDuration(d)
}

// Gauge implements GaugeSink: levels surface as tycos_<sanitized name>.
func (r *Registry) Gauge(name string, value int64) {
	r.sinkSeries(r.gauges, name, kindGauge).Set(value)
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelPairs renders {k="v",...} for a series, with extra appended last
// (used for histogram le bounds). Empty schema and no extra renders "".
func labelPairs(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// formatBound renders a histogram upper bound the way Prometheus clients do.
func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every family in text exposition format (version
// 0.0.4): families sorted by name, one HELP and TYPE line each, series
// sorted by label values, histograms as cumulative le-buckets plus _sum and
// _count. The output is what GET /metrics serves.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]*Series, 0, len(keys))
		for _, k := range keys {
			series = append(series, f.series[k])
		}
		f.mu.RUnlock()
		if len(series) == 0 {
			continue // a family with no series renders nothing, like client_golang
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range series {
			switch f.kind {
			case kindCounter, kindGauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelPairs(f.labels, s.labels, "", ""), s.Value())
			case kindHistogram:
				snap := s.hist.Snapshot()
				cum := int64(0)
				for i := 0; i < HistogramBuckets; i++ {
					cum += snap.Buckets[i]
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
						labelPairs(f.labels, s.labels, "le", formatBound(HistogramUpper(i))), cum)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
					labelPairs(f.labels, s.labels, "le", "+Inf"), snap.Count)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name,
					labelPairs(f.labels, s.labels, "", ""), strconv.FormatFloat(snap.Sum, 'g', -1, 64))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name,
					labelPairs(f.labels, s.labels, "", ""), snap.Count)
			}
		}
	}
	return bw.Flush()
}
